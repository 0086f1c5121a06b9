package core

import (
	"mach/internal/trace"
)

// Run replays one decode trace under one scheme and returns the full
// measurement. The trace is shared across runs: every scheme sees identical
// content, exactly as the paper replays the same video traces through each
// configuration. Concurrent runs may share a trace; all they write to it is
// its digest tables, which are safe for concurrent use.
//
// Run is the one-shot façade over the step machine in runner.go; long-lived
// callers that need checkpointing drive a Runner directly.
func Run(tr *trace.Trace, s Scheme, cfg Config) (*Result, error) {
	r, err := NewRunner(tr, s, cfg)
	if err != nil {
		return nil, err
	}
	for !r.Done() {
		r.StepFrame()
	}
	return r.Finish()
}

// RunStandard runs all six Fig 11 schemes over one trace.
func RunStandard(tr *trace.Trace, cfg Config) ([]*Result, error) {
	var out []*Result
	for _, s := range StandardSchemes() {
		r, err := Run(tr, s, cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
