package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"localwm/internal/family"
)

func sha256Hex(data []byte) string {
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func fileDigest(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256Hex(data)
}

// layeredArgs are the embed parameters of the layered corpus design: a
// tight budget and small ε so that all four watermarks land.
var layeredArgs = []string{"-n", "4", "-epsilon", "0.05", "-budget", "60"}

// TestEmbedCrossBuildIdentity pins what `lwm embed` writes for a frozen
// corpus of designs at a fixed signature. The local-vs-remote and
// worker-count tests compare two paths inside one build, so a change
// that shifted every path alike (ordering tie-breaks, bitstream
// consumption, a codec) would pass them all while stored records
// silently stopped detecting. These digests came from an earlier build;
// a change to them must be deliberate. They also pin that sched record
// files carry no "family" key.
//
// The corpus covers two small registry designs, a 528-op layered
// MediaBench design whose fan-in cones hit the MaxTreeSize cap and need
// D_x ≥ 2 refinement to order, and a template-matching embed, which
// ranks the whole design through order.Global.
func TestEmbedCrossBuildIdentity(t *testing.T) {
	cases := []struct {
		name, design, family string
		extra                []string
		report               string
		marked, solution     string // solution is "" when no -solution file is written
		record               string
	}{
		{"volterra2", "volterra2", "", nil, "embedded 2 watermarks, 8 temporal edges\n",
			"57500756fb2065715339b8f355d96852dcc32a27ac42c0008ead5bb72e26d9d1", "",
			"4de1aa58f720e75410445d3ec3e759632a0d6484e649d04b407d1883feee3b9c"},
		{"dac", "dac", "", nil, "embedded 1 watermarks, 4 temporal edges\n",
			"f1640d07d6a54c2a056cc949564dcdddab6880146d81c03a7d528ab82d8e140d", "",
			"e5d2b88a7c4ad627632fb94b35b586da7c59639ed52a051a2003d321d66d269e"},
		{"layered", "D/A Cnv.", "", layeredArgs, "embedded 4 watermarks, 11 temporal edges\n",
			"5e877cd9b45128a3387d560ddb7cca511c88d5599611f2c3846fe42a773ddfbe", "",
			"58ebb7831af89807b990f9cbe991ec6622d11f598b7a117c5ce2d232852d40b4"},
		{"tmwm", "dac", "tmwm", nil, "embedded 1 watermarks, 2 constraints\n",
			"66e1464fbf09767c9535aecd635bedb7e9a22fd99db83ff43524d783670d307d",
			"78414aee18364d3bdb84217ace694b287691ffaaad82dc0f1f144b97e2c07012",
			"4c570ccfa65183fd663c8a178d33e619dd3065e9697fd1a4de24eb8402654e73"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			design := filepath.Join(dir, "d.cdfg")
			marked := filepath.Join(dir, "m.cdfg")
			sol := filepath.Join(dir, "s.txt")
			rec := filepath.Join(dir, "r.json")
			if err := cmdGen([]string{"-design", c.design, "-o", design}); err != nil {
				t.Fatal(err)
			}
			args := []string{"-in", design, "-sig", "corpus-owner", "-out", marked, "-record", rec}
			if c.family != "" {
				args = append(args, "-family", c.family, "-solution", sol)
			}
			report := captureStdout(t, func() error {
				return cmdEmbed(append(args, c.extra...))
			})
			if report != c.report {
				t.Errorf("report %q, want %q", report, c.report)
			}
			if got := fileDigest(t, marked); got != c.marked {
				t.Errorf("marked design sha256 %s, want %s", got, c.marked)
			}
			if c.solution != "" {
				if got := fileDigest(t, sol); got != c.solution {
					t.Errorf("solution sha256 %s, want %s", got, c.solution)
				}
			}
			if got := fileDigest(t, rec); got != c.record {
				t.Errorf("record file sha256 %s, want %s", got, c.record)
			}
		})
	}
}

// TestDetectCrossBuildIdentity pins the sched detect envelope for the
// layered corpus design: the unmarked design scanned with the marked
// design's schedule, as a thief would ship it. Every record must be
// found, and the envelope (roots, constraint counts, Pc, roots tried)
// must match an earlier build byte for byte.
func TestDetectCrossBuildIdentity(t *testing.T) {
	const (
		wantFound    = 4
		wantEnvelope = "6a837ca86c59d49ea68a1c91b4edb26056e4708626ba90c1b2194c9d5196f68e"
	)
	dir := t.TempDir()
	design := filepath.Join(dir, "d.cdfg")
	marked := filepath.Join(dir, "m.cdfg")
	schedule := filepath.Join(dir, "sched.txt")
	rec := filepath.Join(dir, "r.json")
	if err := cmdGen([]string{"-design", "D/A Cnv.", "-o", design}); err != nil {
		t.Fatal(err)
	}
	captureStdout(t, func() error {
		return cmdEmbed(append([]string{"-in", design, "-sig", "corpus-owner", "-out", marked, "-record", rec}, layeredArgs...))
	})
	if err := cmdSchedule([]string{"-in", marked, "-out", schedule}); err != nil {
		t.Fatal(err)
	}

	proto, err := family.Lookup("sched")
	if err != nil {
		t.Fatal(err)
	}
	text, err := os.ReadFile(design)
	if err != nil {
		t.Fatal(err)
	}
	d, err := proto.ParseDesign(string(text))
	if err != nil {
		t.Fatal(err)
	}
	solText, err := os.ReadFile(schedule)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := proto.ParseSolution(d, string(solText))
	if err != nil {
		t.Fatal(err)
	}
	var rf recordFile
	data, err := os.ReadFile(rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &rf); err != nil {
		t.Fatal(err)
	}
	resp, err := proto.Detect(context.Background(), []family.Suspect{{Design: d, Solution: sol}}, rf.Records, 1)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Detected != wantFound {
		t.Errorf("detected %d of %d watermarks, want %d", resp.Detected, len(rf.Records), wantFound)
	}
	env, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha256Hex(env); got != wantEnvelope {
		t.Errorf("detect envelope sha256 %s, want %s\n%s", got, wantEnvelope, env)
	}
}
