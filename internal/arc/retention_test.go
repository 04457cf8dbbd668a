package arc

import (
	"encoding/json"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestFinishedJobKeepsNoneOfItsText: a description padded with 256 KiB of
// whitespace costs a finished job no more than a plain one — under 16 KiB
// of heap each, where the request's JobName and Executable, substrings of the
// text, kept all of it alive — and the padding changes nothing in the job's
// timeline but the submitted byte count. Two worlds run the same jobs, one
// plain and one padded.
func TestFinishedJobKeepsNoneOfItsText(t *testing.T) {
	const jobs, pad, maxPerJob = 8, 256 << 10, 16 << 10
	plain, padded := newWorld(t, 4), newWorld(t, 4)
	padding := strings.Repeat(" \n\t", pad/3+1)
	var plainIDs, paddedIDs []string
	var paddedBytes []int
	for i := 0; i < jobs; i++ {
		gj, err := plain.manager.Submit(plain.xrslJob(t, 100, 4, 30, 300), nil)
		if err != nil {
			t.Fatal(err)
		}
		plainIDs = append(plainIDs, gj.ID)
	}
	plain.eng.RunFor(12 * time.Hour)

	before := liveHeap()
	for i := 0; i < jobs; i++ {
		text := strings.Replace(padded.xrslJob(t, 100, 4, 30, 300), ")(", ")"+padding+"(", 1)
		gj, err := padded.manager.Submit(text, nil)
		if err != nil {
			t.Fatal(err)
		}
		paddedIDs = append(paddedIDs, gj.ID)
		paddedBytes = append(paddedBytes, len(text))
	}
	padded.eng.RunFor(12 * time.Hour)
	after := liveHeap()
	runtime.KeepAlive(padded)
	runtime.KeepAlive(padding)
	if per := (after - before) / jobs; per >= maxPerJob {
		t.Errorf("a finished job submitted with %d KiB of padding keeps %d B of heap, want < %d", pad>>10, per, maxPerJob)
	} else {
		t.Logf("a finished job submitted with %d KiB of padding keeps %d B of heap", pad>>10, per)
	}

	for i := range paddedIDs {
		want, err := plain.manager.Timeline(plainIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		got, err := padded.manager.Timeline(paddedIDs[i])
		if err != nil {
			t.Fatal(err)
		}
		if got.State != StateFinished {
			t.Fatalf("padded job %s ended %s (%s)", got.JobID, got.State, got.Error)
		}
		// The submitted event counts the text's bytes, padding included.
		sub := got.Events[0].Attrs
		if got.Events[0].Name != "submitted" || sub[0].Key != "xrsl_bytes" || sub[0].Value != strconv.Itoa(paddedBytes[i]) {
			t.Fatalf("padded job %s: first event %+v, want submitted with xrsl_bytes=%d", got.JobID, got.Events[0], paddedBytes[i])
		}
		sub[0] = want.Events[0].Attrs[0]
		// The span ids come from the process-wide tracer, shared by the worlds.
		got.TraceID, got.SpanID, want.TraceID, want.SpanID = "", "", "", ""
		gb, _ := json.Marshal(got)
		wb, _ := json.Marshal(want)
		if string(gb) != string(wb) {
			t.Errorf("job %d: padded timeline\n%s\nwant the plain job's\n%s", i, gb, wb)
		}
	}
}

// liveHeap is the heap in use after two collections: the second frees what
// sync.Pool's victim cache kept past the first.
func liveHeap() int64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}
