// Package prng provides the keyed pseudo-random bitstream that drives every
// signature-dependent choice in the local-watermarking protocols.
//
// The paper generates the stream "using the RC4 stream cipher by iteratively
// encrypting a certain standard seed number keyed with the author's digital
// signature". The one-way property of the generator is what prevents an
// attacker from working backwards from a desired set of constraints to a
// signature that would produce them. RC4 is implemented here from scratch
// (it is a 30-line algorithm) so the repository has no dependency beyond
// the standard library and so tests can pin the exact keystream.
package prng

import "fmt"

// RC4 is the classic Rivest stream cipher used as a keystream generator.
// It is NOT used here for confidentiality — only as a deterministic,
// hard-to-invert pseudo-random function of the author's signature.
type RC4 struct {
	s    [256]byte
	i, j uint8
}

// NewRC4 initializes the cipher with the key-scheduling algorithm (KSA).
// Key length must be in [1, 256] bytes.
func NewRC4(key []byte) (*RC4, error) {
	if len(key) == 0 || len(key) > 256 {
		return nil, fmt.Errorf("prng: RC4 key length %d out of range [1,256]", len(key))
	}
	c := &RC4{}
	for i := 0; i < 256; i++ {
		c.s[i] = byte(i)
	}
	var j uint8
	for i := 0; i < 256; i++ {
		j += c.s[i] + key[i%len(key)]
		c.s[i], c.s[j] = c.s[j], c.s[i]
	}
	return c, nil
}

// NextByte produces the next keystream byte (PRGA step).
func (c *RC4) NextByte() byte {
	c.i++
	c.j += c.s[c.i]
	c.s[c.i], c.s[c.j] = c.s[c.j], c.s[c.i]
	return c.s[uint8(c.s[c.i]+c.s[c.j])]
}

// Read fills p with keystream bytes. It never fails; the error is present
// to satisfy io.Reader.
func (c *RC4) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = c.NextByte()
	}
	return len(p), nil
}
