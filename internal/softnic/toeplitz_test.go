package softnic

import (
	"math/rand"
	"strconv"
	"sync"
	"testing"

	"opendesc/internal/pkt"
)

// tableKeys returns the two package keys plus seeded random keys of every
// length 0..48: keys under 4 bytes (no window forms, the hash is 0) and keys
// shorter than input+4 (zero-padded windows) included.
func tableKeys(r *rand.Rand) [][]byte {
	keys := [][]byte{DefaultToeplitzKey[:], SymmetricToeplitzKey[:]}
	for n := 0; n <= 48; n++ {
		k := make([]byte, n)
		r.Read(k)
		keys = append(keys, k)
	}
	return keys
}

// tupleInfo builds the decoded-packet fields RSS hashes from raw bytes: l3
// picks IPv4, IPv6 or one of two non-IP kinds and l4 TCP, UDP or neither.
func tupleInfo(l3, l4 byte, b []byte) *pkt.Info {
	var in pkt.Info
	in.L3 = [...]pkt.L3Kind{pkt.L3IPv4, pkt.L3IPv6, pkt.L3None, pkt.L3Other}[l3%4]
	in.L4 = [...]pkt.L4Kind{pkt.L4TCP, pkt.L4UDP, pkt.L4None}[l4%3]
	b = append(b[:len(b):len(b)], make([]byte, 36)...) // never into the caller's array
	copy(in.SrcIP[:], b[0:16])
	copy(in.DstIP[:], b[16:32])
	in.SrcPort = uint16(b[32])<<8 | uint16(b[33])
	in.DstPort = uint16(b[34])<<8 | uint16(b[35])
	return &in
}

// TestToeplitzTableMatchesReference: for every key the table hashes every
// input the way the bit-serial Toeplitz does — each single set bit of a
// 36-byte input and random inputs of 0..36 bytes — and its RSS equals
// RSSKey over IPv4/IPv6 × TCP/UDP/other and non-IP tuples.
func TestToeplitzTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for _, key := range tableKeys(r) {
		tab := ToeplitzTableFor(key)
		check := func(in []byte) {
			t.Helper()
			if got, want := tab.hash(in), Toeplitz(key, in); got != want {
				t.Fatalf("key %x input %x: table %#x, bit-serial %#x", key, in, got, want)
			}
		}
		for bit := 0; bit < 8*toeplitzRows; bit++ {
			in := make([]byte, toeplitzRows)
			in[bit/8] = 0x80 >> (bit % 8)
			check(in)
		}
		for n := 0; n <= toeplitzRows; n++ {
			in := make([]byte, n)
			r.Read(in)
			check(in)
		}
		for l3 := byte(0); l3 < 4; l3++ {
			for l4 := byte(0); l4 < 3; l4++ {
				b := make([]byte, 36)
				r.Read(b)
				in := tupleInfo(l3, l4, b)
				if got, want := tab.RSS(in), RSSKey(key, in); got != want {
					t.Fatalf("key %x L3 %v L4 %v: table RSS %#x, RSSKey %#x", key, in.L3, in.L4, got, want)
				}
			}
		}
	}
}

// TestToeplitzTableFor: the package keys share one table each; any other
// key gets a table of its own that does not follow later writes to the
// caller's key slice.
func TestToeplitzTableFor(t *testing.T) {
	if ToeplitzTableFor(DefaultToeplitzKey[:]) != ToeplitzTableFor(append([]byte(nil), DefaultToeplitzKey[:]...)) {
		t.Error("default key: tables not shared")
	}
	if ToeplitzTableFor(SymmetricToeplitzKey[:]) == ToeplitzTableFor(DefaultToeplitzKey[:]) {
		t.Error("symmetric and default keys share a table")
	}
	key := append([]byte(nil), DefaultToeplitzKey[:]...)
	key[0] ^= 1
	tab := ToeplitzTableFor(key)
	in := []byte{0xFF, 1, 2, 3}
	want := Toeplitz(key, in)
	key[0] ^= 1
	if got := tab.hash(in); got != want {
		t.Errorf("table follows the caller's key: %#x, want %#x", got, want)
	}
}

// TestToeplitzTableConcurrentFirstUse: goroutines that hash with a table
// nobody has used yet all see the rows built once and hash like Toeplitz.
func TestToeplitzTableConcurrentFirstUse(t *testing.T) {
	key := append([]byte(nil), SymmetricToeplitzKey[:]...)
	key[3] ^= 0x10
	tab := ToeplitzTableFor(key)
	in := []byte{10, 0, 0, 1, 192, 168, 7, 2, 0x1f, 0x90, 0x4e, 0x20}
	want := Toeplitz(key, in)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := tab.hash(in); got != want {
				t.Errorf("concurrent first use: %#x, want %#x", got, want)
			}
		}()
	}
	wg.Wait()
}

// FuzzToeplitzTable compares the table with the bit-serial Toeplitz for
// arbitrary keys (0..48 bytes) and inputs (0..36 bytes), and the table RSS
// with RSSKey on a tuple built from the input.
func FuzzToeplitzTable(f *testing.F) {
	f.Add(DefaultToeplitzKey[:], []byte{66, 9, 149, 187, 161, 142, 100, 80, 0x0a, 0xea, 0x06, 0xe6}, byte(0), byte(0))
	f.Add(SymmetricToeplitzKey[:], make([]byte, 36), byte(1), byte(1))
	f.Add([]byte{1, 2, 3}, []byte{0xff}, byte(2), byte(2))
	f.Add([]byte{0x6d, 0x5a, 0x56, 0xda, 0x25}, []byte{0xff, 0xff, 0xff}, byte(0), byte(1))
	f.Fuzz(func(t *testing.T, key, input []byte, l3, l4 byte) {
		key = key[:min(len(key), 48)]
		input = input[:min(len(input), toeplitzRows)]
		tab := ToeplitzTableFor(key)
		if got, want := tab.hash(input), Toeplitz(key, input); got != want {
			t.Fatalf("key %x input %x: table %#x, bit-serial %#x", key, input, got, want)
		}
		in := tupleInfo(l3, l4, input)
		if got, want := tab.RSS(in), RSSKey(key, in); got != want {
			t.Fatalf("key %x tuple %x: table RSS %#x, RSSKey %#x", key, input, got, want)
		}
	})
}

var toeplitzSink uint32

// BenchmarkToeplitz compares the bit-serial hash with the table at the RSS
// input sizes (IPv4 2-tuple, IPv4 4-tuple, IPv6 4-tuple), and times the
// one-time table build.
func BenchmarkToeplitz(b *testing.B) {
	key := DefaultToeplitzKey[:]
	for _, n := range []int{8, 12, 36} {
		in := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(in)
		b.Run("serial/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				toeplitzSink += Toeplitz(key, in)
			}
		})
		tab := ToeplitzTableFor(key)
		tab.table()
		b.Run("table/"+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				toeplitzSink += tab.hash(in)
			}
		})
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			(&ToeplitzTable{key: key}).table()
		}
	})
}
