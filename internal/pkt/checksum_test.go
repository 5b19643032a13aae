package pkt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// refAccumulator is the 16-bit-at-a-time Internet checksum loop that
// ChecksumAccumulator.Add replaced: the executable reference the
// word-at-a-time kernel is checked against.
type refAccumulator struct {
	sum uint64
	odd bool
}

func (c *refAccumulator) Add(data []byte) {
	i := 0
	if c.odd && len(data) > 0 {
		c.sum += uint64(data[0])
		i = 1
		c.odd = false
	}
	for ; i+1 < len(data); i += 2 {
		c.sum += uint64(binary.BigEndian.Uint16(data[i : i+2]))
	}
	if i < len(data) {
		c.sum += uint64(data[i]) << 8
		c.odd = true
	}
}

func (c *refAccumulator) AddUint16(v uint16) { c.sum += uint64(v) }

func (c *refAccumulator) Sum() uint16 {
	s := c.sum
	for s>>16 != 0 {
		s = (s & 0xFFFF) + (s >> 16)
	}
	return ^uint16(s)
}

func refChecksum(data []byte) uint16 {
	var c refAccumulator
	c.Add(data)
	return c.Sum()
}

// checkSplit feeds data to both accumulators in segments cut by rng (odd
// boundaries and empty segments included), interleaving AddUint16 words at
// some cuts, and fails on the first difference.
func checkSplit(t *testing.T, data []byte, rng *rand.Rand) {
	t.Helper()
	var got ChecksumAccumulator
	var want refAccumulator
	rest := data
	for len(rest) > 0 {
		n := rng.Intn(len(rest) + 1)
		if rng.Intn(4) == 0 {
			n = rng.Intn(min(len(rest), 9) + 1) // favour short, odd cuts
		}
		got.Add(rest[:n])
		want.Add(rest[:n])
		rest = rest[n:]
		if rng.Intn(8) == 0 {
			v := uint16(rng.Uint32())
			got.AddUint16(v)
			want.AddUint16(v)
		}
	}
	if g, w := got.Sum(), want.Sum(); g != w {
		t.Fatalf("len %d: split sum %#04x, reference %#04x", len(data), g, w)
	}
	if g, w := Checksum(data), refChecksum(data); g != w {
		t.Fatalf("len %d: one-shot sum %#04x, reference %#04x", len(data), g, w)
	}
}

// fillPattern fills data from rng with random bytes broken by runs of
// all-0x00 and all-0xFF bytes, the inputs that exercise the 0x0000 vs
// 0xFFFF one's-complement edge and carry chains.
func fillPattern(data []byte, rng *rand.Rand) {
	for i := 0; i < len(data); {
		n := min(len(data)-i, 1+rng.Intn(64))
		switch rng.Intn(3) {
		case 0:
			clear(data[i : i+n])
		case 1:
			for j := i; j < i+n; j++ {
				data[j] = 0xFF
			}
		default:
			rng.Read(data[i : i+n])
		}
		i += n
	}
}

func TestChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	buf := make([]byte, 9000)
	for i := 0; i < 4000; i++ {
		n := rng.Intn(96)
		if i%8 == 0 {
			n = rng.Intn(len(buf) + 1)
		}
		data := buf[:n]
		fillPattern(data, rng)
		checkSplit(t, data, rng)
	}
	for _, n := range []int{0, 1, 2, 7, 8, 9, 31, 32, 33, 1400, 1401, 9000} {
		for _, fill := range []byte{0x00, 0xFF} {
			data := buf[:n]
			for j := range data {
				data[j] = fill
			}
			checkSplit(t, data, rng)
		}
	}
}

// TestChecksumOnesComplementEdges pins the two zero representations: an
// all-zero input sums to +0 (checksum 0xFFFF), while a non-zero sum that is
// a multiple of 0xFFFF folds to -0 (checksum 0x0000), however many 64-bit
// carries it took to get there.
func TestChecksumOnesComplementEdges(t *testing.T) {
	for _, n := range []int{0, 2, 8, 64, 9000} {
		if got := Checksum(make([]byte, n)); got != 0xFFFF {
			t.Errorf("zeros(%d) = %#04x, want 0xffff", n, got)
		}
	}
	ones := make([]byte, 9000)
	for i := range ones {
		ones[i] = 0xFF
	}
	for _, n := range []int{2, 8, 64, 9000} {
		if got := Checksum(ones[:n]); got != 0 {
			t.Errorf("ones(%d) = %#04x, want 0", n, got)
		}
	}
	var c ChecksumAccumulator
	c.AddUint16(0xFFFF)
	c.AddUint16(0x0001)
	if got := c.Sum(); got != ^uint16(0x0001) {
		t.Errorf("0xffff+0x0001 = %#04x, want %#04x", got, ^uint16(0x0001))
	}
}

func FuzzChecksum(f *testing.F) {
	f.Add([]byte{}, int64(0))
	f.Add([]byte{0x12, 0x34, 0x56, 0x78, 0x9A}, int64(1))
	f.Add(make([]byte, 9000), int64(2))
	ones := make([]byte, 1401)
	for i := range ones {
		ones[i] = 0xFF
	}
	f.Add(ones, int64(3))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 9000 {
			data = data[:9000]
		}
		checkSplit(t, data, rand.New(rand.NewSource(seed)))
	})
}

// refL4Checksum is the TCP/UDP checksum computed by the reference loop over
// the pseudo-header and the L4 segment with its checksum field zeroed.
func refL4Checksum(in *Info) uint16 {
	l4 := append([]byte(nil), in.Data[in.L4Off:]...)
	csumOff := 16
	if in.L4 == L4UDP {
		csumOff = 6
	}
	l4[csumOff], l4[csumOff+1] = 0, 0
	var c refAccumulator
	if in.L3 == L3IPv4 {
		c.Add(in.SrcIP[:4])
		c.Add(in.DstIP[:4])
	} else {
		c.Add(in.SrcIP[:])
		c.Add(in.DstIP[:])
		c.AddUint16(uint16(len(l4) >> 16))
	}
	c.AddUint16(uint16(in.IPProto))
	c.AddUint16(uint16(len(l4)))
	c.Add(l4)
	return c.Sum()
}

// TestVerifyL4RoundTrip checks L4Checksum against the reference for TCP and
// UDP over IPv4 and IPv6, and that VerifyL4 accepts the good packet and
// rejects a flipped payload bit and a corrupted checksum field.
func TestVerifyL4RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	v6src := [16]byte{0x20, 0x01, 0x0d, 0xb8, 15: 1}
	v6dst := [16]byte{0x20, 0x01, 0x0d, 0xb8, 0xff, 0xff, 15: 2}
	for _, l3 := range []string{"v4", "v6"} {
		for _, l4 := range []string{"tcp", "udp"} {
			for _, n := range []int{0, 1, 15, 64, 1400, 1401, 8900} {
				name := fmt.Sprintf("%s/%s/%d", l3, l4, n)
				payload := make([]byte, n)
				fillPattern(payload, rng)
				b := func() *Builder {
					b := NewBuilder().WithPayload(payload)
					if l3 == "v6" {
						b.WithIPv6(v6src, v6dst)
					} else {
						b.WithIPv4([4]byte{192, 0, 2, 1}, [4]byte{198, 51, 100, 7})
					}
					if l4 == "tcp" {
						b.WithTCP(40000, 443, 0x18)
					} else {
						b.WithUDP(40000, 4791)
					}
					return b
				}
				good := b().Build()
				var in Info
				if err := Decode(good, &in); err != nil {
					t.Fatalf("%s: decode: %v", name, err)
				}
				got, ok := L4Checksum(&in)
				if want := refL4Checksum(&in); !ok || got != want {
					t.Fatalf("%s: L4Checksum = %#04x,%v, reference %#04x", name, got, ok, want)
				}
				if !VerifyL4(&in) {
					t.Errorf("%s: good checksum rejected", name)
				}
				if n > 0 {
					flipped := append([]byte(nil), good...)
					flipped[len(flipped)-1-rng.Intn(n)] ^= 1 << rng.Intn(8)
					if err := Decode(flipped, &in); err != nil {
						t.Fatal(err)
					}
					if VerifyL4(&in) {
						t.Errorf("%s: flipped payload bit verified", name)
					}
				}
				if err := Decode(b().WithBadL4Checksum().Build(), &in); err != nil {
					t.Fatal(err)
				}
				if VerifyL4(&in) {
					t.Errorf("%s: corrupted checksum verified", name)
				}
			}
		}
	}
}

// BenchmarkChecksum compares the word-at-a-time kernel with the 16-bit
// reference loop at header, minimum-frame, MTU and jumbo sizes.
func BenchmarkChecksum(b *testing.B) {
	buf := make([]byte, 9000)
	rand.New(rand.NewSource(1)).Read(buf)
	for _, n := range []int{20, 64, 1400, 9000} {
		data := buf[:n]
		b.Run(fmt.Sprintf("word/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink += Checksum(data)
			}
		})
		b.Run(fmt.Sprintf("ref16/%d", n), func(b *testing.B) {
			b.SetBytes(int64(n))
			for i := 0; i < b.N; i++ {
				checksumSink += refChecksum(data)
			}
		})
	}
}

var checksumSink uint16
