package xrsl

import (
	"errors"
	"fmt"
	"time"
)

// FileStaging is one inputfiles/outputfiles entry: a logical name plus an
// optional source/destination URL ("" means the broker chooses).
type FileStaging struct {
	Name string
	URL  string
}

// JobRequest is the typed view of the xRSL attributes the Tycoon scheduler
// plugin consumes (paper §3):
//
//   - WallTime maps to the market bid deadline,
//   - TransferToken carries the serialized payment capability whose verified
//     amount becomes the total budget,
//   - Count is the number of concurrent virtual machines,
//   - RuntimeEnvs is software installed into the VM before execution.
type JobRequest struct {
	JobName    string
	Executable string
	Arguments  []string
	Count      int
	// MinHosts is the hold-back threshold the paper's §5.3 proposes: if the
	// Best Response placement cannot afford at least this many hosts, the
	// job is not started and the funds are returned. Carried as the
	// non-standard xRSL attribute "minhosts"; 0 disables the policy.
	MinHosts      int
	WallTime      time.Duration
	CPUTime       time.Duration
	Memory        int // MB
	RuntimeEnvs   []string
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
func (d *Description) ToJobRequest() (*JobRequest, error) {
	jr := &JobRequest{
		JobName:       d.GetString("jobname"),
		Executable:    d.GetString("executable"),
		TransferToken: d.GetString("transfertoken"),
		Count:         1,
	}
	if jr.Executable == "" {
		return nil, ErrNoExecutable
	}
	if vs, ok := d.Get("arguments"); ok {
		for _, v := range vs {
			if !v.IsTuple() {
				jr.Arguments = append(jr.Arguments, v.Word)
			}
		}
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
		mb, err := d.GetInt("memory")
		if err != nil {
			return nil, err
		}
		jr.Memory = mb
	}
	if vs, ok := d.Get("runtimeenvironment"); ok {
		for _, v := range vs {
			if !v.IsTuple() && v.Word != "" {
				jr.RuntimeEnvs = append(jr.RuntimeEnvs, v.Word)
			}
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
		fs := FileStaging{Name: v.Tuple[0].Word}
		if fs.Name == "" {
			return nil, fmt.Errorf("xrsl: %s entry with empty name", attr)
		}
		if len(v.Tuple) == 2 {
			fs.URL = v.Tuple[1].Word
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
