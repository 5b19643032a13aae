package pkt

import (
	"encoding/binary"
	"math/bits"
)

// ChecksumAccumulator incrementally computes the Internet (RFC 1071) one's
// complement checksum.
type ChecksumAccumulator struct {
	sum uint64
	odd bool
}

// Add folds data into the checksum, handling odd-length segments across
// calls.
//
// The sum runs over 64-bit big-endian words with end-around carry (RFC 1071
// §2: deferred carries and byte-order independence). 2^16 ≡ 1 mod 0xFFFF, so
// a 64-bit word is congruent to the sum of its four 16-bit words, and an
// end-around carry keeps a sum that is not all zeros from ever reaching 0:
// Sum folds to exactly the value a 16-bit-at-a-time loop would produce.
func (c *ChecksumAccumulator) Add(data []byte) {
	if len(data) == 0 {
		return
	}
	sum, carry := c.sum, uint64(0)
	if c.odd {
		// The low byte of the 16-bit word the previous segment started.
		sum, carry = bits.Add64(sum, uint64(data[0]), 0)
		data = data[1:]
		c.odd = false
	}
	for len(data) >= 32 {
		w := data[:32:32]
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(w[0:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(w[8:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(w[16:]), carry)
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(w[24:]), carry)
		data = data[32:]
	}
	for len(data) >= 8 {
		sum, carry = bits.Add64(sum, binary.BigEndian.Uint64(data), carry)
		data = data[8:]
	}
	for len(data) >= 2 {
		sum, carry = bits.Add64(sum, uint64(binary.BigEndian.Uint16(data)), carry)
		data = data[2:]
	}
	if len(data) == 1 {
		sum, carry = bits.Add64(sum, uint64(data[0])<<8, carry)
		c.odd = true
	}
	c.sum = endAroundCarry(sum, carry)
}

// AddUint16 folds a single big-endian word.
func (c *ChecksumAccumulator) AddUint16(v uint16) {
	c.sum = endAroundCarry(bits.Add64(c.sum, uint64(v), 0))
}

// endAroundCarry adds the carry out of a 64-bit one's complement sum back
// into it. When that add wraps, the sum is 0 and the second carry lands as 1.
func endAroundCarry(sum, carry uint64) uint64 {
	sum, carry = bits.Add64(sum, carry, 0)
	return sum + carry
}

// Sum finalizes and returns the one's complement checksum.
func (c *ChecksumAccumulator) Sum() uint16 {
	s := c.sum
	for s>>16 != 0 {
		s = (s & 0xFFFF) + (s >> 16)
	}
	return ^uint16(s)
}

// Checksum computes the Internet checksum of data in one shot.
func Checksum(data []byte) uint16 {
	var c ChecksumAccumulator
	c.Add(data)
	return c.Sum()
}

// IPv4HeaderChecksum computes the header checksum for the IPv4 header at
// hdr (with the checksum field bytes treated as zero).
func IPv4HeaderChecksum(hdr []byte) uint16 {
	var c ChecksumAccumulator
	c.Add(hdr[:10])
	// skip checksum bytes 10..11
	c.Add(hdr[12:])
	return c.Sum()
}

// VerifyIPv4Header reports whether the IPv4 header at hdr has a valid
// checksum.
func VerifyIPv4Header(hdr []byte) bool {
	var c ChecksumAccumulator
	c.Add(hdr)
	// Summing the full header including its checksum yields 0 when valid.
	return c.Sum() == 0
}

// L4Checksum computes the TCP/UDP checksum for the parsed packet, including
// the pseudo-header. Returns 0, false if the packet has no supported L4.
func L4Checksum(in *Info) (uint16, bool) {
	if in.L4 != L4TCP && in.L4 != L4UDP {
		return 0, false
	}
	var c ChecksumAccumulator
	l4 := in.Data[in.L4Off:]
	l4len := len(l4)
	switch in.L3 {
	case L3IPv4:
		c.Add(in.SrcIP[:4])
		c.Add(in.DstIP[:4])
		c.AddUint16(uint16(in.IPProto))
		c.AddUint16(uint16(l4len))
	case L3IPv6:
		c.Add(in.SrcIP[:])
		c.Add(in.DstIP[:])
		c.AddUint16(uint16(l4len >> 16))
		c.AddUint16(uint16(l4len))
		c.AddUint16(uint16(in.IPProto))
	default:
		return 0, false
	}
	// Checksum field position inside the L4 header.
	csumOff := 16 // TCP
	if in.L4 == L4UDP {
		csumOff = 6
	}
	c.Add(l4[:csumOff])
	c.Add(l4[csumOff+2:])
	return c.Sum(), true
}

// VerifyL4 reports whether the packet's TCP/UDP checksum is valid.
func VerifyL4(in *Info) bool {
	want, ok := L4Checksum(in)
	return ok && L4ChecksumMatches(in, want)
}

// L4ChecksumMatches reports whether the TCP/UDP checksum field of in equals
// want, the value L4Checksum returned with ok for in; a zero UDP checksum
// (optional over IPv4) always matches. It is VerifyL4's comparison, for a
// caller that already holds the checksum.
func L4ChecksumMatches(in *Info, want uint16) bool {
	l4 := in.Data[in.L4Off:]
	csumOff := 16
	if in.L4 == L4UDP {
		csumOff = 6
	}
	got := binary.BigEndian.Uint16(l4[csumOff : csumOff+2])
	if in.L4 == L4UDP && got == 0 {
		return true // UDP checksum optional over IPv4
	}
	return got == want
}
