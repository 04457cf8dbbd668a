package xrsl

import (
	"errors"
	"fmt"
	"strings"
	"time"
)

// FileStaging is one inputfiles/outputfiles entry. The broker stages by
// count (arc's stage-in and stage-out times), so only the logical name is
// kept; an entry's optional URL is checked and dropped.
type FileStaging struct {
	Name string
}

// JobRequest is the typed view of the xRSL attributes the Tycoon scheduler
// plugin consumes (paper §3):
//
//   - WallTime maps to the market bid deadline (CPUTime when it is absent),
//   - TransferToken carries the serialized payment capability whose verified
//     amount becomes the total budget,
//   - Count is the number of concurrent virtual machines,
//   - InputFiles and OutputFiles set the stage-in and stage-out times.
//
// Other attributes a job names (arguments, memory, runtimeenvironment) are
// checked for form and not kept: the VM model runs no executable, sizes no
// memory and installs no software.
type JobRequest struct {
	JobName    string
	Executable string
	Count      int
	// MinHosts is the hold-back threshold the paper's §5.3 proposes: if the
	// Best Response placement cannot afford at least this many hosts, the
	// job is not started and the funds are returned. Carried as the
	// non-standard xRSL attribute "minhosts"; 0 disables the policy.
	MinHosts      int
	WallTime      time.Duration
	CPUTime       time.Duration
	InputFiles    []FileStaging
	OutputFiles   []FileStaging
	TransferToken string
}

// Validation errors for job requests.
var (
	ErrNoExecutable = errors.New("xrsl: job has no executable")
	ErrNoDeadline   = errors.New("xrsl: job has neither walltime nor cputime")
)

// ToJobRequest extracts the typed request. Walltime and cputime are in
// minutes, the ARC convention.
//
// A bare value is a substring of the parsed text, so every string the request
// keeps is cloned: a request shares no bytes with its text, and a job kept
// for the broker's life does not keep the whole submission alive with it —
// transfer token and padding included.
func (d *Description) ToJobRequest() (*JobRequest, error) {
	jr := &JobRequest{
		JobName:       strings.Clone(d.GetString("jobname")),
		Executable:    strings.Clone(d.GetString("executable")),
		TransferToken: strings.Clone(d.GetString("transfertoken")),
		Count:         1,
	}
	if jr.Executable == "" {
		return nil, ErrNoExecutable
	}
	if _, ok := d.Get("count"); ok {
		n, err := d.GetInt("count")
		if err != nil {
			return nil, err
		}
		if n < 1 {
			return nil, fmt.Errorf("xrsl: count %d, want >= 1", n)
		}
		jr.Count = n
	}
	if _, ok := d.Get("minhosts"); ok {
		n, err := d.GetInt("minhosts")
		if err != nil {
			return nil, err
		}
		if n < 0 {
			return nil, fmt.Errorf("xrsl: minhosts %d, want >= 0", n)
		}
		jr.MinHosts = n
	}
	if _, ok := d.Get("walltime"); ok {
		mins, err := d.GetInt("walltime")
		if err != nil {
			return nil, err
		}
		jr.WallTime = time.Duration(mins) * time.Minute
	}
	if _, ok := d.Get("cputime"); ok {
		mins, err := d.GetInt("cputime")
		if err != nil {
			return nil, err
		}
		jr.CPUTime = time.Duration(mins) * time.Minute
	}
	if jr.WallTime <= 0 && jr.CPUTime <= 0 {
		return nil, ErrNoDeadline
	}
	if _, ok := d.Get("memory"); ok {
		if _, err := d.GetInt("memory"); err != nil {
			return nil, err
		}
	}
	var err error
	jr.InputFiles, err = stagingList(d, "inputfiles")
	if err != nil {
		return nil, err
	}
	jr.OutputFiles, err = stagingList(d, "outputfiles")
	if err != nil {
		return nil, err
	}
	return jr, nil
}

func stagingList(d *Description, attr string) ([]FileStaging, error) {
	vs, ok := d.Get(attr)
	if !ok {
		return nil, nil
	}
	var out []FileStaging
	for _, v := range vs {
		if !v.IsTuple() || len(v.Tuple) == 0 || len(v.Tuple) > 2 {
			return nil, fmt.Errorf("xrsl: %s entries must be (name [url]) tuples", attr)
		}
		fs := FileStaging{Name: strings.Clone(v.Tuple[0].Word)}
		if fs.Name == "" {
			return nil, fmt.Errorf("xrsl: %s entry with empty name", attr)
		}
		out = append(out, fs)
	}
	return out, nil
}

// Deadline returns the bid deadline the Tycoon plugin uses: walltime when
// present, otherwise cputime.
func (jr *JobRequest) Deadline() time.Duration {
	if jr.WallTime > 0 {
		return jr.WallTime
	}
	return jr.CPUTime
}
