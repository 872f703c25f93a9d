package prng

import "fmt"

// Signature is an author's digital signature: an arbitrary byte string
// (e.g. an RSA signature over the design specification, or simply a name).
// Two different signatures yield statistically independent bitstreams.
type Signature []byte

// seedPrefix is the "standard seed number" the paper mentions: a fixed,
// public prefix mixed with the signature so that even a one-byte signature
// keys a full-entropy RC4 state.
var seedPrefix = []byte("localwm-seed-2000:")

// Bitstream is a deterministic bit source keyed by an author signature.
// All watermark-embedding choices (subtree walks, node selections, matching
// picks) consume this stream, so embedding and detection replay identical
// decisions given the same signature and design.
type Bitstream struct {
	c       *RC4
	buf     byte
	nbits   int // bits remaining in buf
	emitted int // total bits produced, for diagnostics
}

// NewBitstream keys a bitstream with the given signature. An empty
// signature is rejected: an unkeyed watermark proves nothing.
func NewBitstream(sig Signature) (*Bitstream, error) {
	if len(sig) == 0 {
		return nil, fmt.Errorf("prng: empty signature")
	}
	key := make([]byte, 0, len(seedPrefix)+len(sig))
	key = append(key, seedPrefix...)
	key = append(key, sig...)
	if len(key) > 256 {
		// RC4 keys cap at 256 bytes; fold longer signatures by XOR into a
		// 256-byte block so no signature bytes are ignored.
		folded := make([]byte, 256)
		for i, b := range key {
			folded[i%256] ^= b
		}
		key = folded
	}
	c, err := NewRC4(key)
	if err != nil {
		return nil, err
	}
	// Drop the first 256 bytes of keystream: the standard mitigation for
	// RC4's biased early output, and it makes related keys diverge fully.
	var drop [256]byte
	_, _ = c.Read(drop[:])
	return &Bitstream{c: c}, nil
}

// MustBitstream is NewBitstream for non-empty literal signatures in tests
// and examples.
func MustBitstream(sig Signature) *Bitstream {
	b, err := NewBitstream(sig)
	if err != nil {
		panic(err)
	}
	return b
}

// CopyFrom sets b to src's exact state, so b continues src's stream from
// where src stands without repeating the key schedule: a detector that
// replays one keyed stream at many candidate roots keys it once. The
// zero Bitstream is a valid b; b must not be src.
func (b *Bitstream) CopyFrom(src *Bitstream) {
	if b.c == nil {
		b.c = new(RC4)
	}
	*b.c = *src.c
	b.buf, b.nbits, b.emitted = src.buf, src.nbits, src.emitted
}

// Bit returns the next pseudo-random bit.
func (b *Bitstream) Bit() bool {
	if b.nbits == 0 {
		b.buf = b.c.NextByte()
		b.nbits = 8
	}
	bit := b.buf&1 == 1
	b.buf >>= 1
	b.nbits--
	b.emitted++
	return bit
}

// Emitted returns the number of bits consumed so far.
func (b *Bitstream) Emitted() int { return b.emitted }

// Uint64 returns the next 64 pseudo-random bits as an integer.
func (b *Bitstream) Uint64() uint64 {
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(b.c.NextByte())
	}
	b.emitted += 64
	return v
}

// Intn returns a uniform integer in [0, n). It panics if n <= 0.
// Rejection sampling removes modulo bias so selection probabilities match
// the protocol analysis exactly.
func (b *Bitstream) Intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("prng: Intn(%d), n must be positive", n))
	}
	if n == 1 {
		return 0
	}
	max := uint64(n)
	// Largest multiple of n that fits in 64 bits.
	limit := (^uint64(0) / max) * max
	for {
		v := b.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Coin returns true with probability num/den (a biased coin). It panics on
// a malformed probability.
func (b *Bitstream) Coin(num, den int) bool {
	if den <= 0 || num < 0 || num > den {
		panic(fmt.Sprintf("prng: Coin(%d/%d) malformed", num, den))
	}
	return b.Intn(den) < num
}

// Perm returns a pseudo-random permutation of [0, n) via Fisher–Yates.
func (b *Bitstream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := b.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Select returns an ordered pseudo-random selection of k distinct indices
// from [0, n) — the "pseudo-randomly ordered selection T” of K nodes from
// T'" of the scheduling protocol. The order of the result is part of the
// watermark. It panics if k is not in [0, n].
func (b *Bitstream) Select(k, n int) []int {
	if k < 0 || k > n {
		panic(fmt.Sprintf("prng: Select(%d of %d) out of range", k, n))
	}
	return b.Perm(n)[:k]
}
