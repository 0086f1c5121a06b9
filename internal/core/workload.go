package core

import (
	"mach/internal/trace"
	"mach/internal/video"
)

// BuildTrace synthesizes one Table 1 workload into a replay trace: generate
// scene frames and encode them with the block codec, whose closed loop
// yields each frame's decoded pixels and decode work as it goes, so no
// decode pass follows. Every scheme then replays the identical trace.
func BuildTrace(profileKey string, sc video.StreamConfig) (*trace.Trace, error) {
	prof, err := video.ProfileByKey(profileKey)
	if err != nil {
		return nil, err
	}
	st, err := video.Synthesize(prof, sc)
	if err != nil {
		return nil, err
	}
	return trace.Build(prof.Key, prof.FPS, st.Params, st.Encoded)
}

// WorkloadKeys returns the 16 Table 1 keys in order.
func WorkloadKeys() []string {
	ps := video.Profiles()
	keys := make([]string, len(ps))
	for i, p := range ps {
		keys[i] = p.Key
	}
	return keys
}
