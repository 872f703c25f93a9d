package schedwm

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/domain"
	"localwm/internal/prng"
	"localwm/internal/sched"
	"localwm/internal/stats"
)

// refDetect is Detect as it was written before Scan: windows per record,
// every root's fingerprint recomputed per record, a freshly keyed domain
// stream and a package-level domain.Select at every root.
func refDetect(g *cdfg.Graph, s *sched.Schedule, rec Record) (*Detection, error) {
	if len(rec.RankEdges) == 0 {
		return nil, fmt.Errorf("schedwm: record carries no constraints")
	}
	if len(s.Steps) != g.Len() {
		return nil, fmt.Errorf("schedwm: schedule covers %d nodes, graph has %d", len(s.Steps), g.Len())
	}
	w, err := sched.ComputeWindows(g, max(s.Budget, s.Makespan()), false)
	if err != nil {
		return nil, err
	}
	det := &Detection{}
	haveBest := false
	for _, root := range domain.Roots(g) {
		if rec.RootFP != "" && domain.RootFingerprint(g, root) != rec.RootFP {
			continue
		}
		det.RootsTried++
		ds, err := domainStream(rec.Signature, rec.Index, rec.Try)
		if err != nil {
			return nil, err
		}
		d, err := domain.Select(g, ds, root, rec.DomainCfg)
		if err != nil || len(d.T) != rec.TLen {
			continue
		}
		cand := Candidate{Root: root}
		ok := true
		for _, re := range rec.RankEdges {
			if re[0] >= len(d.To) || re[1] >= len(d.To) {
				ok = false
				break
			}
			src, dst := d.To[re[0]], d.To[re[1]]
			if s.Steps[src] == 0 || s.Steps[dst] == 0 {
				ok = false
				break
			}
			cand.Total++
			cand.Nodes = append(cand.Nodes, src, dst)
			if s.Steps[src] < s.Steps[dst] {
				cand.Satisfied++
				p, err := stats.OrderProb(w.ASAP[src], w.ALAP[src], w.ASAP[dst], w.ALAP[dst])
				if err != nil {
					return nil, err
				}
				cand.Pc = cand.Pc.Mul(stats.FromProb(p))
			}
		}
		if !ok || cand.Total == 0 {
			continue
		}
		if cand.Satisfied == len(rec.RankEdges) && cand.Total == len(rec.RankEdges) {
			det.Matches = append(det.Matches, cand)
		}
		if better(cand, det.Best, haveBest) {
			det.Best = cand
			haveBest = true
		}
	}
	det.Found = len(det.Matches) > 0
	return det, nil
}

// sameOutcome compares two Detect outcomes, errors by their text.
func sameOutcome(t *testing.T, what string, got *Detection, gotErr error, want *Detection, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: detection %+v, want %+v", what, got, want)
	}
}

// TestScanMatchesFreshDetect checks every record of a mixed batch — own
// records, the same records without a root fingerprint, another owner's
// records, and odd ones — through one shared Scan, concurrently, against
// a fresh Detect per record and against the reference detector.
func TestScanMatchesFreshDetect(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	cfg := Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: mustCP(t, g) + 7}
	own, err := EmbedMany(g, prng.Signature("scan-owner"), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := sched.ListSchedule(g, sched.ListOpts{UseTemporal: true})
	if err != nil {
		t.Fatal(err)
	}
	suspect := g.Clone()
	suspect.ClearTemporalEdges()

	other := designs.Layered(designs.MediaBench()[1].Cfg)
	foreign, err := EmbedMany(other, prng.Signature("scan-other"), Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: mustCP(t, other) + 7}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var recs []Record
	for _, wm := range append(own, foreign...) {
		rec := wm.Record()
		recs = append(recs, rec)
		rec.RootFP = ""
		recs = append(recs, rec)
	}
	unsigned := own[0].Record()
	unsigned.Signature = nil // a walk keyed by the index suffix alone
	noRoot := own[0].Record()
	noRoot.RootFP = "no/such/[fingerprint]" // no candidate root at all
	empty := own[1].Record()
	empty.RankEdges = nil // rejected before the scan
	recs = append(recs, unsigned, noRoot, empty)

	scan := NewScan(suspect, s)
	got := make([]*Detection, len(recs))
	gotErr := make([]error, len(recs))
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], gotErr[i] = scan.Detect(recs[i])
		}()
	}
	wg.Wait()

	found := 0
	for i, rec := range recs {
		what := fmt.Sprintf("record %d (fingerprint %q)", i, rec.RootFP)
		fresh, freshErr := Detect(suspect, s, rec)
		sameOutcome(t, what+" vs fresh Detect", got[i], gotErr[i], fresh, freshErr)
		want, wantErr := refDetect(suspect, s, rec)
		sameOutcome(t, what+" vs reference", got[i], gotErr[i], want, wantErr)
		if got[i] != nil && got[i].Found {
			found++
		}
	}
	if found < 2*len(own) {
		t.Fatalf("%d records found, want at least the %d own ones with and without fingerprint", found, 2*len(own))
	}
}

// A suspect that cannot be scanned reports its error for every record
// with constraints, after the record's own check, as Detect always has.
func TestScanErrorOrder(t *testing.T) {
	g := designs.Layered(designs.MediaBench()[0].Cfg)
	wm, err := Embed(g.Clone(), prng.Signature("scan-err"), Config{Tau: 20, K: 4, Epsilon: 0.25, Budget: mustCP(t, g) + 7})
	if err != nil {
		t.Fatal(err)
	}
	rec := wm.Record()
	empty := rec
	empty.RankEdges = nil
	short := &sched.Schedule{Steps: make([]int, g.Len()-1), Budget: 10}
	tight := &sched.Schedule{Steps: make([]int, g.Len()), Budget: 1} // below the critical path
	for _, s := range []*sched.Schedule{short, tight} {
		scan := NewScan(g, s)
		for _, r := range []Record{rec, empty} {
			got, gotErr := scan.Detect(r)
			want, wantErr := refDetect(g, s, r)
			if gotErr == nil {
				t.Fatal("unscannable suspect accepted")
			}
			sameOutcome(t, fmt.Sprintf("budget %d, %d steps", s.Budget, len(s.Steps)), got, gotErr, want, wantErr)
		}
	}
}
