package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"localwm/internal/cdfg"
	"localwm/internal/designs"
	"localwm/internal/gcolor"
)

// The generators below turn -seed into every design, signature, coloring
// instance and request order a workload uses. Sizes are stratified (one
// design per size band, the seed picks where inside the band), so two
// seeds draw different designs of the same size mix: the per-run cost
// stays comparable across seeds while the inputs differ.

// workloadRand returns the seeded stream for one workload.
func workloadRand(workload string, seed int64) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "lwmbench/%s/%d", workload, seed)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

func writeCDFG(g *cdfg.Graph) string {
	var buf bytes.Buffer
	if err := cdfg.Write(&buf, g); err != nil {
		panic(fmt.Sprintf("lwmbench: writing generated design: %v", err))
	}
	return buf.String()
}

// signature draws an author signature.
func signature(rng *rand.Rand, who string) string {
	return fmt.Sprintf("%s-%08x", who, rng.Uint32())
}

// auditDesign is one design of the audit corpus before marking.
type auditDesign struct {
	Name, Text, Owner string
}

// auditCorpusSize is the number of suspect designs in the audit corpus:
// one per 37.5-op band from 300 to 900 ops.
const auditCorpusSize = 16

// auditAlternates is the number of spare (design, owner) candidates per
// audit band, tried in order when the band's first design cannot host
// four watermarks for its owner (see prepareAudit).
const auditAlternates = 3

// uniformMix weighs every operation kind equally, so no fingerprint
// class dominates a design and the candidate-root counts of records stay
// comparable from seed to seed.
var uniformMix = designs.OpMix{Add: 1, Mul: 1, Logic: 1, Shift: 1, Cmp: 1, Load: 1, Store: 1, Branch: 1}

// genAudit draws the audit corpus candidates: per band between 300 and
// 900 ops (MediaBench-scale operation counts), a layered design with a
// seed-derived name, width 12 and an even operation mix, with its own
// seeded owner, followed by auditAlternates spares of the same band. The
// first candidates are drawn before any spare, so the spares never shift
// a band's first candidate. The MediaBench applications'
// own skewed mixes are left out: a dominant fingerprint class makes a
// few requests scan dozens of roots per record, and the per-pass work
// then swings by a quarter from seed to seed.
func genAudit(seed int64) [][]auditDesign {
	rng := workloadRand("audit", seed)
	out := make([][]auditDesign, auditCorpusSize)
	draw := func(b int, name string) auditDesign {
		g := designs.Layered(designs.LayeredConfig{
			Name:   name,
			Ops:    300 + 600*b/auditCorpusSize + rng.Intn(600/auditCorpusSize),
			Width:  12,
			Inputs: 10,
			Mix:    uniformMix,
		})
		return auditDesign{Name: name, Text: writeCDFG(g), Owner: signature(rng, fmt.Sprintf("owner%d", b))}
	}
	for b := range out {
		out[b] = []auditDesign{draw(b, fmt.Sprintf("audit-s%d-b%d", seed, b))}
	}
	for b := range out {
		for v := 1; v <= auditAlternates; v++ {
			out[b] = append(out[b], draw(b, fmt.Sprintf("audit-s%d-b%d-v%d", seed, b, v)))
		}
	}
	return out
}

// markPair is one inline embed request of the mark workload: a
// (design, signature) pair, the first candidate prepareMark accepts.
type markPair struct {
	Name, Text, Signature string
}

// smallDesigns are the registry's DSP kernels below 100 operations that
// host four watermarks under the mark parameters for any signature.
var smallDesigns = []struct {
	name  string
	build func() *cdfg.Graph
}{
	{"cfiir8", designs.EighthOrderCFIIR},
	{"wavelet", designs.WaveletFilter},
	{"volterra2", designs.Volterra2},
	{"modem", designs.ModemFilter},
	{"volterra3", designs.Volterra3},
}

// markPairs is the number of (design, signature) pairs in one pass of
// the mark workload, uniformly stratified over 30..800 operations.
const markPairs = 64

// markDesigns and markSignatures size each pair's candidate list: three
// seeded designs of the band, each with two seeded signatures.
const (
	markDesigns    = 3
	markSignatures = 2
)

// genMark draws the mark workload's candidate (design, signature) pairs,
// markDesigns×markSignatures per band, in the order prepareMark tries
// them. Band i of n covers ops in [30+770·i/n, 30+770·(i+1)/n). Bands
// below 100 ops take registry DSP kernels (small layered designs are too
// shallow to host four watermarks); the rest are layered designs with
// seed-derived names, an even operation mix, and a width of one op per
// 40 (at least 3). The bands are shuffled into the request order.
func genMark(seed int64) [][]markPair {
	rng := workloadRand("mark", seed)
	out := make([][]markPair, markPairs)
	for i := range out {
		lo := 30 + 770*i/markPairs
		hi := 30 + 770*(i+1)/markPairs
		for v := 0; v < markDesigns; v++ {
			name := fmt.Sprintf("mark-s%d-b%d-v%d", seed, i, v)
			var text string
			if lo < 100 {
				small := smallDesigns[rng.Intn(len(smallDesigns))]
				name += "-" + small.name
				text = writeCDFG(small.build())
			} else {
				ops := lo + rng.Intn(max(hi-lo, 1))
				text = writeCDFG(designs.Layered(designs.LayeredConfig{
					Name: name, Ops: ops, Width: max(3, ops/40), Inputs: 8, Mix: uniformMix,
				}))
			}
			for k := 0; k < markSignatures; k++ {
				out[i] = append(out[i], markPair{Name: name, Text: text, Signature: signature(rng, "author")})
			}
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// gcolorInstance is one coloring instance of the light workload.
type gcolorInstance struct {
	Name, Text, Signature string
}

// lightGcolor is the number of coloring instances in one light pass,
// stratified over 100..300 vertices at 6% edge density beyond the
// connectivity backbone.
const lightGcolor = 8

// lightPuts and lightGets are the design-registry requests in one light
// pass; lightHot is the resident set the gets read; lightTemplates are
// the small scheduling designs (24..38 ops) that puts instantiate.
const (
	lightTemplates = 8
	lightPuts      = 16
	lightGets      = 16
	lightHot       = 32
)

// lightInputs is the light workload's generated inputs.
type lightInputs struct {
	Gcolor []gcolorInstance
	// Template is a small scheduling design whose node names carry a '@'
	// placeholder; fresh(tag) substitutes a unique tag, giving a new
	// design (and a new ref) with the template's structure.
	Templates []string
	// Order is the request order of one pass: indices into the kinds
	// "gembed", "gdetect", "put", "get".
	Order []lightSlot
}

type lightSlot struct {
	Kind string
	I    int // instance (gcolor), template (put), or hot design (get) index
}

func genLight(seed int64) lightInputs {
	rng := workloadRand("light", seed)
	var in lightInputs
	for i := 0; i < lightGcolor; i++ {
		n := 100 + 25*i + rng.Intn(25)
		name := fmt.Sprintf("light-s%d-g%d", seed, i)
		g, err := gcolor.RandomGraph(name, n, 6, 100)
		if err != nil {
			panic(fmt.Sprintf("lwmbench: gcolor instance: %v", err))
		}
		in.Gcolor = append(in.Gcolor, gcolorInstance{
			Name: name, Text: gcolor.FormatGraph(g), Signature: signature(rng, "colorist"),
		})
	}
	for i := 0; i < lightTemplates; i++ {
		g := designs.Layered(designs.LayeredConfig{
			Name: fmt.Sprintf("light-s%d-t%d", seed, i), Ops: 24 + 2*i, Width: 4, Inputs: 6, Mix: uniformMix,
		})
		in.Templates = append(in.Templates, placeholderNames(writeCDFG(g)))
	}
	for i := 0; i < lightGcolor; i++ {
		in.Order = append(in.Order, lightSlot{"gembed", i}, lightSlot{"gdetect", i})
	}
	for i := 0; i < lightPuts; i++ {
		in.Order = append(in.Order, lightSlot{"put", i})
	}
	for i := 0; i < lightGets; i++ {
		in.Order = append(in.Order, lightSlot{"get", rng.Intn(lightHot)})
	}
	rng.Shuffle(len(in.Order), func(i, j int) { in.Order[i], in.Order[j] = in.Order[j], in.Order[i] })
	return in
}

// placeholderNames prefixes every node name of a canonical cdfg text with
// '@', so strings.ReplaceAll(t, "@", tag) yields a fresh canonical design.
func placeholderNames(text string) string {
	var sb strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		f := strings.Fields(line)
		switch f[0] {
		case "node":
			f[1] = "@" + f[1]
		case "edge":
			f[1], f[2] = "@"+f[1], "@"+f[2]
		}
		sb.WriteString(strings.Join(f, " "))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// freshDesign instantiates template t under a unique tag.
func freshDesign(t, tag string) string { return strings.ReplaceAll(t, "@", tag) }

// inputDigest hashes a workload's generated inputs, so two runs can be
// shown to share inputs and another seed to differ.
func inputDigest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write([]byte(p))
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
