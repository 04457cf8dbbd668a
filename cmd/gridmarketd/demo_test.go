package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"tycoongrid/internal/box"
	"tycoongrid/internal/jobapi"
)

// TestDemoRefusesUnknownAndTakenUsers drives the demo handlers on an
// in-process box: a token for a user the box does not have, and a second
// user of a name already taken, each answer 400, while the first user and
// its token answer 200.
func TestDemoRefusesUnknownAndTakenUsers(t *testing.T) {
	b, err := box.New(box.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	jobs, err := jobapi.NewService(b.Scheduler(), b.Engine)
	if err != nil {
		t.Fatal(err)
	}
	demo := &demoAPI{box: b, jobs: jobs}
	post := func(h http.HandlerFunc, body string) (int, string) {
		rec := httptest.NewRecorder()
		h(rec, httptest.NewRequest("POST", "/", strings.NewReader(body)))
		return rec.Code, rec.Body.String()
	}
	for _, c := range []struct {
		what, body string
		handler    http.HandlerFunc
		want       int
	}{
		{"token for an unknown user", `{"user":"alice","amount":"5"}`, demo.mintToken, http.StatusBadRequest},
		{"first alice", `{"name":"alice","grant":"500"}`, demo.createUser, http.StatusOK},
		{"token for alice", `{"user":"alice","amount":"5"}`, demo.mintToken, http.StatusOK},
		{"second alice", `{"name":"alice","grant":"500"}`, demo.createUser, http.StatusBadRequest},
		{"token for an unknown user beside alice", `{"user":"bob","amount":"5"}`, demo.mintToken, http.StatusBadRequest},
	} {
		if code, body := post(c.handler, c.body); code != c.want {
			t.Errorf("%s: %d %s, want %d", c.what, code, body, c.want)
		}
	}
	if n := len(b.Users); n != 1 {
		t.Errorf("the box holds %d users, want alice alone", n)
	}
}
