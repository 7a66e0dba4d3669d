package jpegx

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStdSpecsValid(t *testing.T) {
	for name, spec := range map[string]*HuffSpec{
		"DCLuma": StdDCLuma(), "DCChroma": StdDCChroma(),
		"ACLuma": StdACLuma(), "ACChroma": StdACChroma(),
	} {
		if err := spec.validate(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if _, err := newHuffEncoder(spec); err != nil {
			t.Errorf("%s encoder: %v", name, err)
		}
		if _, err := newHuffDecoder(spec); err != nil {
			t.Errorf("%s decoder: %v", name, err)
		}
	}
	if n := StdACLuma().numSymbols(); n != 162 {
		t.Errorf("ACLuma has %d symbols, want 162", n)
	}
}

// encodeDecodeSymbols round-trips a symbol sequence through a spec's encoder
// and decoder pair.
func encodeDecodeSymbols(t *testing.T, spec *HuffSpec, syms []byte) {
	t.Helper()
	enc, err := newHuffEncoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	bw := newBitWriter(&buf)
	for _, s := range syms {
		bw.writeBits(enc.code[s], uint(enc.size[s]))
	}
	if err := bw.pad(); err != nil {
		t.Fatal(err)
	}
	dec, err := newHuffDecoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	br := newTestBitReader(buf.Bytes())
	for i, want := range syms {
		got, err := dec.decode(br)
		if err != nil {
			t.Fatalf("symbol %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("symbol %d: got %#02x, want %#02x", i, got, want)
		}
	}
}

func TestHuffmanRoundTripStdTables(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	spec := StdACLuma()
	syms := make([]byte, 3000)
	for i := range syms {
		syms[i] = spec.Symbols[rng.Intn(len(spec.Symbols))]
	}
	encodeDecodeSymbols(t, spec, syms)
}

func TestBuildOptimalSpec(t *testing.T) {
	var freq [256]int64
	// A skewed distribution exercising both short and long codes.
	for i := 0; i < 40; i++ {
		freq[i] = int64(1) << uint(i%20)
	}
	spec, err := BuildOptimalSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	// Every nonzero-frequency symbol must be present exactly once.
	seen := map[byte]int{}
	for _, s := range spec.Symbols {
		seen[s]++
	}
	for i := 0; i < 40; i++ {
		if seen[byte(i)] != 1 {
			t.Errorf("symbol %d appears %d times", i, seen[byte(i)])
		}
	}
	if len(spec.Symbols) != 40 {
		t.Errorf("%d symbols, want 40", len(spec.Symbols))
	}
	// More frequent symbols must not get longer codes.
	enc, err := newHuffEncoder(spec)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 40; a++ {
		for b := 0; b < 40; b++ {
			if freq[a] > freq[b] && enc.size[a] > enc.size[b] {
				t.Errorf("freq[%d]=%d > freq[%d]=%d but len %d > %d",
					a, freq[a], b, freq[b], enc.size[a], enc.size[b])
			}
		}
	}
	// And round-trip through it.
	rng := rand.New(rand.NewSource(5))
	syms := make([]byte, 2000)
	for i := range syms {
		syms[i] = byte(rng.Intn(40))
	}
	encodeDecodeSymbols(t, spec, syms)
}

func TestBuildOptimalSpecSingleSymbol(t *testing.T) {
	var freq [256]int64
	freq[42] = 100
	spec, err := BuildOptimalSpec(&freq)
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Symbols) != 1 || spec.Symbols[0] != 42 {
		t.Fatalf("symbols = %v, want [42]", spec.Symbols)
	}
	encodeDecodeSymbols(t, spec, bytes.Repeat([]byte{42}, 50))
}

func TestBuildOptimalSpecProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var freq [256]int64
		n := 1 + rng.Intn(255)
		for i := 0; i < n; i++ {
			freq[rng.Intn(256)] = int64(rng.Intn(100000)) + 1
		}
		spec, err := BuildOptimalSpec(&freq)
		if err != nil {
			return false
		}
		if spec.validate() != nil {
			return false
		}
		// Length limit respected.
		for l := 16; l < 16; l++ {
			_ = l
		}
		total := 0
		for _, c := range spec.Counts {
			total += int(c)
		}
		want := 0
		for _, f := range freq {
			if f > 0 {
				want++
			}
		}
		return total == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestBuildOptimalSpecErrors(t *testing.T) {
	var empty [256]int64
	if _, err := BuildOptimalSpec(&empty); err == nil {
		t.Error("expected error for all-zero frequencies")
	}
	var neg [256]int64
	neg[0] = -1
	if _, err := BuildOptimalSpec(&neg); err == nil {
		t.Error("expected error for negative frequency")
	}
}

func TestHuffSpecValidateErrors(t *testing.T) {
	bad := &HuffSpec{Counts: [16]byte{0, 2}, Symbols: []byte{1}}
	if err := bad.validate(); err == nil {
		t.Error("count/symbol mismatch not detected")
	}
	over := &HuffSpec{Counts: [16]byte{3}, Symbols: []byte{1, 2, 3}}
	if err := over.validate(); err == nil {
		t.Error("oversubscribed table not detected")
	}
	dup := &HuffSpec{Counts: [16]byte{0, 2}, Symbols: []byte{7, 7}}
	if _, err := newHuffEncoder(dup); err == nil {
		t.Error("duplicate symbol not detected")
	}
}

func TestBitWriterStuffing(t *testing.T) {
	var buf bytes.Buffer
	bw := newBitWriter(&buf)
	bw.writeBits(0xFF, 8)
	bw.writeBits(0xFF, 8)
	if err := bw.pad(); err != nil {
		t.Fatal(err)
	}
	want := []byte{0xFF, 0x00, 0xFF, 0x00}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("got % x, want % x", buf.Bytes(), want)
	}
	// And the reader must undo it.
	br := newTestBitReader(buf.Bytes())
	if v := br.readBits(16); v != 0xFFFF {
		t.Errorf("read %#x, want 0xffff", v)
	}
}

// newTestBitReader wraps an in-memory entropy-coded segment for direct
// bit-level tests.
func newTestBitReader(data []byte) *bitReader {
	br := &bitReader{}
	br.attach(&byteCursor{data: data})
	return br
}

func TestBitReaderMarkerStop(t *testing.T) {
	// Data byte, then an RST0 marker: reads past the data must synthesize
	// 1-bits and report the pending marker.
	br := newTestBitReader([]byte{0xAB, 0xFF, 0xD0})
	if v := br.readBits(8); v != 0xAB {
		t.Fatalf("got %#x", v)
	}
	if v := br.readBits(8); v != 0xFF {
		t.Fatalf("padding read got %#x", v)
	}
	if br.pendingMarker() != 0xD0 {
		t.Errorf("pending marker %#x, want 0xd0", br.pendingMarker())
	}
}

func TestMagnitude(t *testing.T) {
	cases := []struct {
		v     int32
		nbits uint
		bits  uint32
	}{
		{0, 0, 0},
		{1, 1, 1},
		{-1, 1, 0},
		{2, 2, 2},
		{3, 2, 3},
		{-2, 2, 1},
		{-3, 2, 0},
		{1023, 10, 1023},
		{-1023, 10, 0},
		{2047, 11, 2047},
	}
	for _, c := range cases {
		n, b := magnitude(c.v)
		if n != c.nbits || b != c.bits {
			t.Errorf("magnitude(%d) = (%d, %d), want (%d, %d)", c.v, n, b, c.nbits, c.bits)
		}
		// extend must invert the mapping.
		if c.nbits > 0 {
			if got := extend(int32(b), n); got != c.v {
				t.Errorf("extend(%d, %d) = %d, want %d", b, n, got, c.v)
			}
		}
	}
}

func TestMagnitudeExtendProperty(t *testing.T) {
	f := func(v int16) bool {
		n, bits := magnitude(int32(v))
		if v == 0 {
			return n == 0
		}
		return extend(int32(bits), n) == int32(v)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
