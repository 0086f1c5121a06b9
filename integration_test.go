// Integration tests exercising the public API end to end: the invariants a
// downstream user of the library relies on, checked across workloads and
// schemes at the calibrated reference scale.
package mach_test

import (
	"testing"

	"mach"
)

// integrationTrace caches one reference-scale trace for the whole file.
var integrationTraces = map[string]*mach.Trace{}

func getTrace(t testing.TB, key string, frames int) *mach.Trace {
	t.Helper()
	id := key
	if tr, ok := integrationTraces[id]; ok && tr.NumFrames() >= frames {
		return tr
	}
	sc := mach.DefaultStreamConfig()
	sc.NumFrames = frames
	tr, err := mach.BuildTrace(key, sc)
	if err != nil {
		t.Fatal(err)
	}
	integrationTraces[id] = tr
	return tr
}

// TestSchemeOrdering checks the paper's headline ordering on a contentful
// workload: the full recipe beats race-to-sleep beats batching beats the
// baseline, and plain racing does not save energy.
func TestSchemeOrdering(t *testing.T) {
	tr := getTrace(t, "V13", 48)
	cfg := mach.DefaultConfig()
	results, err := mach.RunStandard(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	norm := make(map[string]float64)
	base := results[0].TotalEnergy()
	for _, r := range results {
		norm[r.Scheme.Name] = r.TotalEnergy() / base
	}
	t.Logf("normalized: %+v", norm)

	if norm["Racing"] < 0.97 {
		t.Errorf("racing alone should not save much energy: %.3f", norm["Racing"])
	}
	if norm["Batching"] >= 1 {
		t.Errorf("batching should save energy: %.3f", norm["Batching"])
	}
	if norm["Race-to-Sleep"] >= norm["Batching"] {
		t.Errorf("race-to-sleep %.3f should beat batching %.3f", norm["Race-to-Sleep"], norm["Batching"])
	}
	if norm["MAB"] >= norm["Race-to-Sleep"] {
		t.Errorf("MAB %.3f should beat race-to-sleep %.3f", norm["MAB"], norm["Race-to-Sleep"])
	}
	if norm["GAB"] >= norm["Race-to-Sleep"] {
		t.Errorf("GAB %.3f should beat race-to-sleep %.3f", norm["GAB"], norm["Race-to-Sleep"])
	}
}

// TestNoDropsWithRecipe checks the paper's QoS claim: the full recipe never
// drops frames, on every workload.
func TestNoDropsWithRecipe(t *testing.T) {
	if testing.Short() {
		t.Skip("runs several workloads")
	}
	cfg := mach.DefaultConfig()
	for _, key := range []string{"V1", "V2", "V5", "V12"} {
		tr := getTrace(t, key, 48)
		res, err := mach.Run(tr, mach.GAB(mach.DefaultBatch), cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Drops != 0 {
			t.Errorf("%s: GAB dropped %d frames", key, res.Drops)
		}
		if res.S3Residency() < 0.3 {
			t.Errorf("%s: S3 residency %.2f too low for the recipe", key, res.S3Residency())
		}
	}
}

// TestWorkloadDiversity: the 16 workloads must not all behave alike — the
// paper's region analysis depends on per-video variation.
func TestWorkloadDiversity(t *testing.T) {
	if testing.Short() {
		t.Skip("builds several traces")
	}
	cfg := mach.DefaultConfig()
	var energies []float64
	for _, key := range []string{"V2", "V4", "V13"} {
		tr := getTrace(t, key, 32)
		res, err := mach.Run(tr, mach.Baseline(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		energies = append(energies, res.EnergyPerFrame())
	}
	// The heavy timelapse (V2) must cost clearly more than the static
	// webcam (V4).
	if energies[0] <= energies[1] {
		t.Errorf("V2 (%.2f mJ) should cost more than V4 (%.2f mJ)", 1e3*energies[0], 1e3*energies[1])
	}
}

// TestPublicProfilesMatchTable1 sanity-checks the re-exported workload table.
func TestPublicProfilesMatchTable1(t *testing.T) {
	ps := mach.Profiles()
	if len(ps) != 16 {
		t.Fatalf("profiles = %d", len(ps))
	}
	p, err := mach.ProfileByKey("V12")
	if err != nil || p.Name != "Crysis 3" {
		t.Fatalf("V12 = %+v, %v", p, err)
	}
	if len(mach.WorkloadKeys()) != 16 {
		t.Fatal("workload keys")
	}
}
