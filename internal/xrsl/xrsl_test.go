package xrsl

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

const sample = `&(executable=scan.sh)
 (arguments="chunk" 0)
 (jobname=proteome-scan)
 (count=15)
 (walltime=330)
 (memory=512)
 (runtimeenvironment=APPS/BIO/BLAST-2.0)
 (inputfiles=(proteome.dat gsiftp://grid.kth.se/proteome/chunk0.dat) (scan.sh))
 (outputfiles=(result.dat ""))
 (transfertoken=tok-abc123)`

func TestParseSample(t *testing.T) {
	d, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.GetString("executable"); got != "scan.sh" {
		t.Errorf("executable = %q", got)
	}
	if got := d.GetString("jobname"); got != "proteome-scan" {
		t.Errorf("jobname = %q", got)
	}
	if n, err := d.GetInt("count"); err != nil || n != 15 {
		t.Errorf("count = %d, %v", n, err)
	}
	args, ok := d.Get("arguments")
	if !ok || len(args) != 2 || args[0].Word != "chunk" || args[1].Word != "0" {
		t.Errorf("arguments = %+v", args)
	}
	in, ok := d.Get("inputfiles")
	if !ok || len(in) != 2 || !in[0].IsTuple() {
		t.Fatalf("inputfiles = %+v", in)
	}
	if in[0].Tuple[1].Word != "gsiftp://grid.kth.se/proteome/chunk0.dat" {
		t.Errorf("input URL = %q", in[0].Tuple[1].Word)
	}
}

func TestAttributeCaseInsensitive(t *testing.T) {
	d, err := Parse(`&(Executable=a.sh)(WallTime=10)`)
	if err != nil {
		t.Fatal(err)
	}
	if d.GetString("executable") != "a.sh" {
		t.Error("case-insensitive lookup failed")
	}
	if d.GetString("WALLTIME") != "10" {
		t.Error("upper-case lookup failed")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"(executable=x)",       // missing &
		"&",                    // no relations
		"&(executable)",        // no '='
		"&(=x)",                // no attribute
		"&(executable=x",       // unterminated relation
		`&(a="unterminated)`,   // unterminated string
		"&(a=(b c)",            // unterminated tuple
		`&(a="trailing\`,       // dangling escape
		"&(a=x) trailing-junk", // junk after relations
	}
	for _, s := range bad {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q): want error", s)
		}
	}
}

func TestQuotedStringsAndEscapes(t *testing.T) {
	d, err := Parse(`&(arguments="hello world" "a\"b" "")`)
	if err != nil {
		t.Fatal(err)
	}
	args, _ := d.Get("arguments")
	if len(args) != 3 || args[0].Word != "hello world" || args[1].Word != `a"b` || args[2].Word != "" {
		t.Errorf("args = %+v", args)
	}
}

func TestRoundTrip(t *testing.T) {
	d1, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	s := d1.String()
	d2, err := Parse(s)
	if err != nil {
		t.Fatalf("reparse %q: %v", s, err)
	}
	if d1.String() != d2.String() {
		t.Errorf("round trip changed:\n%s\n%s", d1.String(), d2.String())
	}
}

func TestSetReplacesAndAppends(t *testing.T) {
	d, _ := Parse("&(executable=a)")
	d.Set("executable", "b")
	if d.GetString("executable") != "b" {
		t.Error("Set did not replace")
	}
	d.Set("count", "4")
	if n, _ := d.GetInt("count"); n != 4 {
		t.Error("Set did not append")
	}
	if len(d.Relations) != 2 {
		t.Errorf("relations = %d", len(d.Relations))
	}
}

func TestGetIntErrors(t *testing.T) {
	d, _ := Parse("&(count=abc)(files=(a b))")
	if _, err := d.GetInt("count"); err == nil {
		t.Error("non-numeric accepted")
	}
	if _, err := d.GetInt("missing"); err == nil {
		t.Error("missing attr accepted")
	}
	if _, err := d.GetInt("files"); err == nil {
		t.Error("tuple attr accepted")
	}
}

func TestToJobRequest(t *testing.T) {
	d, err := Parse(sample)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := d.ToJobRequest()
	if err != nil {
		t.Fatal(err)
	}
	if jr.Executable != "scan.sh" || jr.JobName != "proteome-scan" {
		t.Errorf("jr = %+v", jr)
	}
	if jr.Count != 15 {
		t.Errorf("count = %d", jr.Count)
	}
	if jr.WallTime != 330*time.Minute {
		t.Errorf("walltime = %v", jr.WallTime)
	}
	if jr.Deadline() != 330*time.Minute {
		t.Errorf("deadline = %v", jr.Deadline())
	}
	if jr.Memory != 512 {
		t.Errorf("memory = %d", jr.Memory)
	}
	if len(jr.RuntimeEnvs) != 1 || jr.RuntimeEnvs[0] != "APPS/BIO/BLAST-2.0" {
		t.Errorf("rte = %v", jr.RuntimeEnvs)
	}
	if len(jr.InputFiles) != 2 || jr.InputFiles[0].URL == "" || jr.InputFiles[1].URL != "" {
		t.Errorf("inputs = %+v", jr.InputFiles)
	}
	if jr.TransferToken != "tok-abc123" {
		t.Errorf("token = %q", jr.TransferToken)
	}
}

func TestJobRequestValidation(t *testing.T) {
	cases := []struct {
		in   string
		want error
	}{
		{"&(walltime=10)", ErrNoExecutable},
		{"&(executable=x)", ErrNoDeadline},
		{"&(executable=x)(walltime=10)(count=0)", nil},
		{"&(executable=x)(walltime=ten)", nil},
		{"&(executable=x)(walltime=10)(inputfiles=(a b c))", nil},
		{"&(executable=x)(walltime=10)(inputfiles=name-not-tuple)", nil},
	}
	for _, c := range cases {
		d, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		_, err = d.ToJobRequest()
		if err == nil {
			t.Errorf("%q: want error", c.in)
			continue
		}
		if c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("%q: err = %v, want %v", c.in, err, c.want)
		}
	}
}

func TestMinHostsAttribute(t *testing.T) {
	d, _ := Parse("&(executable=x)(walltime=10)(minhosts=5)")
	jr, err := d.ToJobRequest()
	if err != nil {
		t.Fatal(err)
	}
	if jr.MinHosts != 5 {
		t.Errorf("minhosts = %d", jr.MinHosts)
	}
	// Round trip.
	back, err := jr.ToDescription().ToJobRequest()
	if err != nil {
		t.Fatal(err)
	}
	if back.MinHosts != 5 {
		t.Errorf("round-trip minhosts = %d", back.MinHosts)
	}
	// Invalid values rejected.
	d2, _ := Parse("&(executable=x)(walltime=10)(minhosts=-1)")
	if _, err := d2.ToJobRequest(); err == nil {
		t.Error("negative minhosts accepted")
	}
	d3, _ := Parse("&(executable=x)(walltime=10)(minhosts=abc)")
	if _, err := d3.ToJobRequest(); err == nil {
		t.Error("non-numeric minhosts accepted")
	}
}

func TestCPUTimeFallback(t *testing.T) {
	d, _ := Parse("&(executable=x)(cputime=60)")
	jr, err := d.ToJobRequest()
	if err != nil {
		t.Fatal(err)
	}
	if jr.Deadline() != time.Hour {
		t.Errorf("deadline = %v", jr.Deadline())
	}
}

func TestJobRequestRoundTrip(t *testing.T) {
	jr := &JobRequest{
		JobName:       "scan",
		Executable:    "run.sh",
		Arguments:     []string{"a", "b c"},
		Count:         5,
		WallTime:      90 * time.Minute,
		Memory:        256,
		RuntimeEnvs:   []string{"APPS/BIO/BLAST"},
		InputFiles:    []FileStaging{{Name: "in.dat", URL: "http://x/in.dat"}, {Name: "local.sh"}},
		OutputFiles:   []FileStaging{{Name: "out.dat"}},
		TransferToken: "tok1",
	}
	d := jr.ToDescription()
	back, err := d.ToJobRequest()
	if err != nil {
		t.Fatalf("%v (xrsl: %s)", err, d)
	}
	if back.JobName != jr.JobName || back.Executable != jr.Executable ||
		back.Count != jr.Count || back.WallTime != jr.WallTime ||
		back.Memory != jr.Memory || back.TransferToken != jr.TransferToken {
		t.Errorf("round trip lost fields:\n%+v\n%+v", jr, back)
	}
	if len(back.Arguments) != 2 || back.Arguments[1] != "b c" {
		t.Errorf("arguments = %v", back.Arguments)
	}
	if len(back.InputFiles) != 2 || back.InputFiles[0].URL != "http://x/in.dat" {
		t.Errorf("inputs = %+v", back.InputFiles)
	}
	// Serialized form must parse.
	if !strings.HasPrefix(d.String(), "&(") {
		t.Errorf("serialized = %q", d.String())
	}
}

func BenchmarkParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse(sample); err != nil {
			b.Fatal(err)
		}
	}
}

// ToDescription converts the typed request back to xRSL: the inverse the
// round-trip tests hold ToJobRequest to.
func (jr *JobRequest) ToDescription() *Description {
	var d Description
	d.Set("executable", jr.Executable)
	if len(jr.Arguments) > 0 {
		d.Set("arguments", jr.Arguments...)
	}
	if jr.JobName != "" {
		d.Set("jobname", jr.JobName)
	}
	if jr.Count > 1 {
		d.Set("count", fmt.Sprint(jr.Count))
	}
	if jr.MinHosts > 0 {
		d.Set("minhosts", fmt.Sprint(jr.MinHosts))
	}
	if jr.WallTime > 0 {
		d.Set("walltime", fmt.Sprint(int(jr.WallTime.Minutes())))
	}
	if jr.CPUTime > 0 {
		d.Set("cputime", fmt.Sprint(int(jr.CPUTime.Minutes())))
	}
	if jr.Memory > 0 {
		d.Set("memory", fmt.Sprint(jr.Memory))
	}
	if len(jr.RuntimeEnvs) > 0 {
		d.Set("runtimeenvironment", jr.RuntimeEnvs...)
	}
	if jr.TransferToken != "" {
		d.Set("transfertoken", jr.TransferToken)
	}
	setStaging := func(attr string, files []FileStaging) {
		if len(files) == 0 {
			return
		}
		vals := make([]Value, len(files))
		for i, f := range files {
			t := []Value{{Word: f.Name}}
			if f.URL != "" {
				t = append(t, Value{Word: f.URL})
			}
			vals[i] = Value{Tuple: t}
		}
		d.Relations = append(d.Relations, Relation{Attr: attr, Values: vals})
	}
	setStaging("inputfiles", jr.InputFiles)
	setStaging("outputfiles", jr.OutputFiles)
	return &d
}

// Set replaces (or appends) a scalar attribute.
func (d *Description) Set(attr string, words ...string) {
	vals := make([]Value, len(words))
	for i, w := range words {
		vals[i] = Value{Word: w}
	}
	attr = strings.ToLower(attr)
	for i := range d.Relations {
		if d.Relations[i].Attr == attr {
			d.Relations[i].Values = vals
			return
		}
	}
	d.Relations = append(d.Relations, Relation{Attr: attr, Values: vals})
}
