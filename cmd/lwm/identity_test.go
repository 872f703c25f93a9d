package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestEmbedCrossBuildIdentity pins what `lwm embed` writes for two
// registry designs at a fixed signature and the default parameters. The
// local-vs-remote and worker-count tests compare two paths inside one
// build, so a change that shifted every path alike (ordering tie-breaks,
// bitstream consumption, a codec) would pass them all while stored
// records silently stopped detecting. These digests came from an
// earlier build; a change to them must be deliberate. They also pin that
// sched record files carry no "family" key.
func TestEmbedCrossBuildIdentity(t *testing.T) {
	cases := []struct {
		design, report, marked, record string
	}{
		{"volterra2", "embedded 2 watermarks, 8 temporal edges\n",
			"57500756fb2065715339b8f355d96852dcc32a27ac42c0008ead5bb72e26d9d1",
			"4de1aa58f720e75410445d3ec3e759632a0d6484e649d04b407d1883feee3b9c"},
		{"dac", "embedded 1 watermarks, 4 temporal edges\n",
			"f1640d07d6a54c2a056cc949564dcdddab6880146d81c03a7d528ab82d8e140d",
			"e5d2b88a7c4ad627632fb94b35b586da7c59639ed52a051a2003d321d66d269e"},
	}
	digest := func(path string) string {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		return hex.EncodeToString(sum[:])
	}
	for _, c := range cases {
		t.Run(c.design, func(t *testing.T) {
			dir := t.TempDir()
			design := filepath.Join(dir, "d.cdfg")
			marked := filepath.Join(dir, "m.cdfg")
			rec := filepath.Join(dir, "r.json")
			if err := cmdGen([]string{"-design", c.design, "-o", design}); err != nil {
				t.Fatal(err)
			}
			report := captureStdout(t, func() error {
				return cmdEmbed([]string{"-in", design, "-sig", "corpus-owner", "-out", marked, "-record", rec})
			})
			if report != c.report {
				t.Errorf("report %q, want %q", report, c.report)
			}
			if got := digest(marked); got != c.marked {
				t.Errorf("marked design sha256 %s, want %s", got, c.marked)
			}
			if got := digest(rec); got != c.record {
				t.Errorf("record file sha256 %s, want %s", got, c.record)
			}
		})
	}
}
