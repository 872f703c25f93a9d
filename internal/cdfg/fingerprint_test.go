package cdfg

import "testing"

// TestWeightFingerprintText pins the exact oracle cache-key text for a
// sample weight table: "op:weight;" per computational operation, in
// operation order.
func TestWeightFingerprintText(t *testing.T) {
	if got := weightFingerprint(nil); got != "" {
		t.Fatalf("nil weight fingerprint %q, want empty", got)
	}
	w := func(op Op) int {
		switch op {
		case OpMul:
			return 3
		case OpDiv:
			return 12
		case OpLoad:
			return -2
		}
		return 1
	}
	const want = "4:1;5:1;6:3;7:1;8:12;9:1;10:1;11:1;12:1;13:1;14:1;15:1;16:-2;17:1;18:1;20:1;"
	if got := weightFingerprint(w); got != want {
		t.Fatalf("weight fingerprint\n got %q\nwant %q", got, want)
	}
}
