package tmatch

import (
	"strings"
	"testing"

	"localwm/internal/designs"
)

// FuzzParseCover drives the cover-text decoder with arbitrary input
// against one fixed design and the standard library. ParseCover is
// reachable from the wire (tmwm detect and verify) and from the lwm CLI,
// so beyond "never panic" the fuzzer checks the format's round-trip
// contract: any input it accepts must survive Write∘Parse with a
// byte-identical second dump.
func FuzzParseCover(f *testing.F) {
	g := designs.DAConverter()
	lib := StandardLibrary()
	cover, err := GreedyCover(g, lib, Constraints{}, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(FormatCover(g, lib, cover))
	// Hand-written seeds: comments, blank lines, a missing header, an
	// unknown template or node, and a node covered twice.
	name := g.Node(g.Computational()[0]).Name
	tmpl := lib.Templates[0].Name
	f.Add("# comment\n\ncover v1\n")
	f.Add("m " + tmpl + " " + name + "\n")
	f.Add("cover v1\nm nosuch " + name + "\n")
	f.Add("cover v1\nm " + tmpl + " nosuch\n")
	f.Add("cover v1\nm " + tmpl + " " + name + "\nm " + tmpl + " " + name + "\n")
	f.Add("cover v2\n")

	f.Fuzz(func(t *testing.T, input string) {
		c, err := ParseCover(g, lib, strings.NewReader(input))
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		var first strings.Builder
		if err := WriteCover(&first, g, lib, c); err != nil {
			t.Fatalf("Write of parsed cover failed: %v", err)
		}
		c2, err := ParseCover(g, lib, strings.NewReader(first.String()))
		if err != nil {
			t.Fatalf("reparse of Write output failed: %v\ninput:\n%s\ndump:\n%s", err, input, first.String())
		}
		if second := FormatCover(g, lib, c2); second != first.String() {
			t.Fatalf("Write∘Parse not a fixed point\nfirst:\n%s\nsecond:\n%s", first.String(), second)
		}
	})
}
