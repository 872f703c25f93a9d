package robust

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"localwm/internal/designs"
	"localwm/internal/prng"
	"localwm/internal/schedwm"
	"localwm/lwmapi"
)

// testBaseline marks a small MediaBench design exactly as the service
// would (CLI-default parameters, budget = critical path + 10% + 1).
func testBaseline(t *testing.T, appIdx, n int) *Baseline {
	t.Helper()
	g := designs.Layered(designs.MediaBench()[appIdx].Cfg)
	cp, err := g.CriticalPath()
	if err != nil {
		t.Fatal(err)
	}
	cfg := schedwm.Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: cp + cp/10 + 1}
	base, err := Prepare(context.Background(), g, prng.Signature("alice"), cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return base
}

func testBattery(t *testing.T) lwmapi.BatterySpec {
	t.Helper()
	b, err := Normalize(lwmapi.BatterySpec{
		Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackPerturb, Intensities: []int{5, 25}},
			{Family: lwmapi.AttackCrop, Intensities: []int{30}},
			{Family: lwmapi.AttackRenumber, Intensities: []int{1}},
			{Family: lwmapi.AttackReschedule, Intensities: []int{1}},
		},
		Trials: 2,
		Alpha:  1e-3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNormalizeDefaults(t *testing.T) {
	b, err := Normalize(lwmapi.BatterySpec{})
	if err != nil {
		t.Fatal(err)
	}
	if b.Trials != 3 || b.Alpha != 1e-6 {
		t.Fatalf("defaults: trials %d alpha %v", b.Trials, b.Alpha)
	}
	if len(b.Attacks) != len(DefaultBattery()) {
		t.Fatalf("default battery has %d families", len(b.Attacks))
	}
	if got := Units(b); got != 24 {
		t.Fatalf("default battery units = %d, want 24", got)
	}
}

func TestNormalizeValidation(t *testing.T) {
	cases := []struct {
		name string
		spec lwmapi.BatterySpec
	}{
		{"unknown family", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: "melt", Intensities: []int{1}}}}},
		{"duplicate family", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackPerturb, Intensities: []int{1}},
			{Family: lwmapi.AttackPerturb, Intensities: []int{2}}}}},
		{"no intensities", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackPerturb}}}},
		{"zero intensity", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackPerturb, Intensities: []int{0, 5}}}}},
		{"non-increasing ladder", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackPerturb, Intensities: []int{5, 5}}}}},
		{"crop over 100", lwmapi.BatterySpec{Attacks: []lwmapi.AttackSpec{
			{Family: lwmapi.AttackCrop, Intensities: []int{101}}}}},
		{"negative trials", lwmapi.BatterySpec{Trials: -1}},
		{"too many trials", lwmapi.BatterySpec{Trials: MaxTrials + 1}},
		{"alpha out of range", lwmapi.BatterySpec{Alpha: 1.5}},
		{"too many units", lwmapi.BatterySpec{Trials: MaxTrials, Attacks: func() []lwmapi.AttackSpec {
			ladder := make([]int, MaxIntensities)
			for i := range ladder {
				ladder[i] = 10 * (i + 1)
			}
			return []lwmapi.AttackSpec{
				{Family: lwmapi.AttackPerturb, Intensities: ladder},
				{Family: lwmapi.AttackRenumber, Intensities: ladder},
				{Family: lwmapi.AttackReschedule, Intensities: ladder},
			}
		}()}},
	}
	for _, tc := range cases {
		if _, err := Normalize(tc.spec); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestRunDeterministicAcrossWorkers is the campaign half of the
// determinism satellite: the same seed and battery produce a
// byte-identical report at any worker count.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	base := testBaseline(t, 0, 2)
	battery := testBattery(t)
	var first []byte
	for _, workers := range []int{1, 3, 8} {
		rep, err := Run(context.Background(), &Campaign{
			Baseline: base, Seed: "s1", Battery: battery, Workers: workers,
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatalf("workers=%d report differs:\n%s\nvs\n%s", workers, first, data)
		}
	}
}

// TestRunDeterministicAcrossPrepares re-prepares the baseline from
// scratch and checks the report still matches: the whole pipeline —
// re-marking included — is deterministic, which is what lets the async
// job path (which re-runs Prepare after a crash) stay byte-identical.
func TestRunDeterministicAcrossPrepares(t *testing.T) {
	battery := testBattery(t)
	var first []byte
	for i := 0; i < 2; i++ {
		base := testBaseline(t, 0, 2)
		rep, err := Run(context.Background(), &Campaign{
			Baseline: base, Seed: "s2", Battery: battery, Workers: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = data
		} else if !bytes.Equal(first, data) {
			t.Fatal("re-prepared campaign report differs")
		}
	}
}

func TestRunReportShape(t *testing.T) {
	base := testBaseline(t, 0, 2)
	battery := testBattery(t)
	rep, err := Run(context.Background(), &Campaign{
		Baseline: base, Seed: "shape", Battery: battery, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Embedding is best-effort on the locality count: assert against
	// what the baseline actually carries, not the requested n.
	if rep.Localities != len(base.Records) || rep.Localities == 0 || rep.Constraints == 0 {
		t.Fatalf("localities %d (baseline %d) constraints %d",
			rep.Localities, len(base.Records), rep.Constraints)
	}
	if rep.Units != Units(battery) || len(rep.Families) != len(battery.Attacks) {
		t.Fatalf("units %d families %d", rep.Units, len(rep.Families))
	}
	for i, exp := range rep.BaselinePcExp {
		if exp >= 0 {
			t.Fatalf("baseline locality %d has no evidence (exp %v)", i, exp)
		}
	}
	for fi, fam := range rep.Families {
		if fam.Family != battery.Attacks[fi].Family {
			t.Fatalf("family %d is %q", fi, fam.Family)
		}
		if len(fam.Steps) != len(battery.Attacks[fi].Intensities) {
			t.Fatalf("family %q has %d steps", fam.Family, len(fam.Steps))
		}
		for _, step := range fam.Steps {
			if step.Trials+len(step.Errors) != battery.Trials {
				t.Fatalf("family %q intensity %d: %d trials + %d errors != %d",
					fam.Family, step.Intensity, step.Trials, len(step.Errors), battery.Trials)
			}
			for i := 0; i < rep.Localities; i++ {
				if step.Survival[i] < 0 || step.Survival[i] > 1 ||
					step.Convincing[i] < 0 || step.Convincing[i] > 1 {
					t.Fatalf("family %q intensity %d locality %d: survival %v convincing %v",
						fam.Family, step.Intensity, i, step.Survival[i], step.Convincing[i])
				}
			}
		}
		// The paper concedes reschedule erases the schedule-order mark:
		// re-synthesis must defeat Convincing at its only rung.
		if fam.Family == lwmapi.AttackReschedule && fam.MinDefeatBudget != 1 {
			t.Fatalf("reschedule min_defeat_budget = %d, want 1", fam.MinDefeatBudget)
		}
	}
}

// TestRunTotalCrop drives the hardened empty-keep Crop through the
// campaign: a 100%% crop is a well-defined all-lost step, not an error.
func TestRunTotalCrop(t *testing.T) {
	base := testBaseline(t, 0, 1)
	battery, err := Normalize(lwmapi.BatterySpec{
		Attacks: []lwmapi.AttackSpec{{Family: lwmapi.AttackCrop, Intensities: []int{100}}},
		Trials:  1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run(context.Background(), &Campaign{
		Baseline: base, Seed: "total", Battery: battery, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	step := rep.Families[0].Steps[0]
	if step.Trials != 1 || len(step.Errors) != 0 {
		t.Fatalf("total crop step: %+v", step)
	}
	for i := 0; i < rep.Localities; i++ {
		if step.Survival[i] != 0 || step.Convincing[i] != 0 || step.MeanPcExp[i] != 0 {
			t.Fatalf("locality %d survived a total crop: %+v", i, step)
		}
	}
	if rep.Families[0].MinDefeatBudget != 100 {
		t.Fatalf("total crop min_defeat_budget = %d", rep.Families[0].MinDefeatBudget)
	}
}

func TestRunCancelled(t *testing.T) {
	base := testBaseline(t, 0, 1)
	battery := testBattery(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, &Campaign{Baseline: base, Seed: "c", Battery: battery, Workers: 2}); err == nil {
		t.Fatal("cancelled campaign succeeded")
	}
}

func TestStatsCount(t *testing.T) {
	before := Stats()
	base := testBaseline(t, 0, 1)
	battery, err := Normalize(lwmapi.BatterySpec{
		Attacks: []lwmapi.AttackSpec{{Family: lwmapi.AttackPerturb, Intensities: []int{3}}},
		Trials:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), &Campaign{
		Baseline: base, Seed: "stats", Battery: battery, Workers: 1,
	}); err != nil {
		t.Fatal(err)
	}
	after := Stats()
	if after.Campaigns != before.Campaigns+1 {
		t.Fatalf("campaigns %d -> %d", before.Campaigns, after.Campaigns)
	}
	if after.Units != before.Units+2 {
		t.Fatalf("units %d -> %d", before.Units, after.Units)
	}
	if after.Scans < before.Scans+2 {
		t.Fatalf("scans %d -> %d", before.Scans, after.Scans)
	}
}
