package telemetry

import (
	"reflect"
	"testing"
)

func TestParsePeers(t *testing.T) {
	for _, c := range []struct {
		spec string
		want []Peer // nil: refused
	}{
		{"bankd=http://localhost:7700", []Peer{{Name: "bankd", BaseURL: "http://localhost:7700"}}},
		{" bankd = http://a , h1=http://b ,", []Peer{{Name: "bankd", BaseURL: "http://a"}, {Name: "h1", BaseURL: "http://b"}}},
		{"", nil},
		{" , ", nil},
		{"bankd", nil},
		{"=http://a", nil},
		{"bankd=", nil},
		{"bankd=http://a,bankd=http://b", nil},
		{"bank/d=http://a", nil},
		{"bank d=http://a", nil},
		// A fleet series is "<peer>/<series>", and one '*' in a series pattern
		// matches any substring: "a*/x:rate" would name every peer's x:rate.
		{"a*=http://a", nil},
		{"*=http://a", nil},
	} {
		got, err := ParsePeers(c.spec)
		if c.want == nil {
			if err == nil {
				t.Errorf("ParsePeers(%q) = %+v, want an error", c.spec, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParsePeers(%q) = %+v, %v; want %+v", c.spec, got, err, c.want)
		}
	}
}
