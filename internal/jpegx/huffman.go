package jpegx

import (
	"errors"
	"fmt"
	"sort"
)

// Huffman coding per ITU-T T.81 Annex C (canonical code construction),
// Annex F (decoding procedure) and Annex K.3 (the example/"standard" DC and
// AC tables used by virtually all baseline encoders).

// HuffSpec is the wire representation of a Huffman table: Counts[i] is the
// number of codes of length i+1 (1..16 bits), Symbols lists the symbol
// values in order of increasing code length.
type HuffSpec struct {
	Counts  [16]byte
	Symbols []byte
}

// Clone returns a deep copy of the spec.
func (s *HuffSpec) Clone() *HuffSpec {
	c := &HuffSpec{Counts: s.Counts, Symbols: append([]byte(nil), s.Symbols...)}
	return c
}

func (s *HuffSpec) numSymbols() int {
	n := 0
	for _, c := range s.Counts {
		n += int(c)
	}
	return n
}

func (s *HuffSpec) validate() error {
	if s.numSymbols() != len(s.Symbols) {
		return fmt.Errorf("jpegx: huffman spec declares %d symbols but carries %d", s.numSymbols(), len(s.Symbols))
	}
	if len(s.Symbols) == 0 {
		return errors.New("jpegx: empty huffman table")
	}
	// Kraft inequality: code space must not be oversubscribed.
	space := 0
	for i, c := range s.Counts {
		space += int(c) << (15 - i)
	}
	if space > 1<<16 {
		return errors.New("jpegx: oversubscribed huffman table")
	}
	return nil
}

// huffEncoder maps symbol → (code, length) for entropy encoding.
type huffEncoder struct {
	code [256]uint32
	size [256]uint8
}

func newHuffEncoder(spec *HuffSpec) (*huffEncoder, error) {
	if err := spec.validate(); err != nil {
		return nil, err
	}
	e := &huffEncoder{}
	code := uint32(0)
	k := 0
	for length := 1; length <= 16; length++ {
		for i := 0; i < int(spec.Counts[length-1]); i++ {
			sym := spec.Symbols[k]
			if e.size[sym] != 0 {
				return nil, fmt.Errorf("jpegx: duplicate huffman symbol %#02x", sym)
			}
			e.code[sym] = code
			e.size[sym] = uint8(length)
			code++
			k++
		}
		code <<= 1
	}
	return e, nil
}

// huffDecoder decodes symbols using an 8-bit fast lookup table with a
// canonical-code fallback for longer codes (the approach used by libjpeg).
type huffDecoder struct {
	// lut[b] for an 8-bit prefix b: high byte = symbol, low byte = code
	// length; 0 means "code longer than 8 bits, use slow path".
	lut [256]uint16
	// Canonical decoding state for codes of length 1..16.
	minCode [17]int32
	maxCode [17]int32 // -1 when no codes of this length
	valPtr  [17]int32
	symbols []byte
}

func newHuffDecoder(spec *HuffSpec) (*huffDecoder, error) {
	d := &huffDecoder{}
	if err := d.init(spec); err != nil {
		return nil, err
	}
	return d, nil
}

// init (re)builds the decoder in place from spec, reusing the symbol storage
// of a previous table so pooled decoders construct tables without
// allocating.
func (d *huffDecoder) init(spec *HuffSpec) error {
	if err := spec.validate(); err != nil {
		return err
	}
	d.symbols = append(d.symbols[:0], spec.Symbols...)
	d.lut = [256]uint16{}
	code := int32(0)
	k := int32(0)
	for length := 1; length <= 16; length++ {
		d.valPtr[length] = k
		d.minCode[length] = code
		n := int32(spec.Counts[length-1])
		code += n
		k += n
		d.maxCode[length] = code - 1
		if n == 0 {
			d.maxCode[length] = -1
		}
		code <<= 1
	}
	// Build the fast LUT.
	code = 0
	k = 0
	for length := 1; length <= 8; length++ {
		for i := 0; i < int(spec.Counts[length-1]); i++ {
			sym := uint16(spec.Symbols[k])
			// All 8-bit values whose top `length` bits equal this code.
			base := code << (8 - length)
			for j := int32(0); j < 1<<(8-length); j++ {
				d.lut[base+j] = sym<<8 | uint16(length)
			}
			code++
			k++
		}
		code <<= 1
	}
	return nil
}

// decode reads one Huffman-coded symbol from br. The fast path resolves
// codes of ≤ 8 bits with one table lookup on the peeked prefix; longer codes
// (rare in practice — the standard tables put every symbol that matters in
// ≤ 8 bits) fall back to the canonical bit-by-bit walk.
func (d *huffDecoder) decode(br *bitReader) (byte, error) {
	if br.n < 8 {
		br.fill()
	}
	if e := d.lut[uint8(br.acc>>(br.n-8))]; e != 0 {
		br.n -= uint(e & 0xFF)
		return byte(e >> 8), nil
	}
	return d.decodeSlow(br)
}

// decodeSlow resolves codes longer than 8 bits using the canonical
// (minCode/maxCode/valPtr) ranges of T.81 F.2.2.3.
func (d *huffDecoder) decodeSlow(br *bitReader) (byte, error) {
	code := int32(0)
	for length := 1; length <= 16; length++ {
		code = code<<1 | int32(br.readBit())
		if d.maxCode[length] >= 0 && code <= d.maxCode[length] {
			return d.symbols[d.valPtr[length]+code-d.minCode[length]], nil
		}
	}
	return 0, errors.New("jpegx: invalid huffman code")
}

// Standard Huffman tables from T.81 Annex K.3.

// StdDCLuma returns the example luminance DC table.
func StdDCLuma() *HuffSpec {
	return &HuffSpec{
		Counts:  [16]byte{0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0},
		Symbols: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
}

// StdDCChroma returns the example chrominance DC table.
func StdDCChroma() *HuffSpec {
	return &HuffSpec{
		Counts:  [16]byte{0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0},
		Symbols: []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11},
	}
}

// StdACLuma returns the example luminance AC table.
func StdACLuma() *HuffSpec {
	return &HuffSpec{
		Counts: [16]byte{0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D},
		Symbols: []byte{
			0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
			0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
			0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
			0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
			0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
			0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
			0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
			0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
			0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
			0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
			0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
			0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
			0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
			0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
			0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
			0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
			0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
			0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
			0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
			0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
			0xF9, 0xFA,
		},
	}
}

// StdACChroma returns the example chrominance AC table.
func StdACChroma() *HuffSpec {
	return &HuffSpec{
		Counts: [16]byte{0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77},
		Symbols: []byte{
			0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
			0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
			0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
			0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
			0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
			0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
			0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
			0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
			0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
			0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
			0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
			0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
			0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
			0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
			0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
			0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
			0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
			0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
			0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
			0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
			0xF9, 0xFA,
		},
	}
}

// BuildOptimalSpec constructs a length-limited (≤ 16 bit) Huffman table for
// the observed symbol frequencies, using the package-merge-free procedure of
// T.81 Annex K.2 (the same algorithm as libjpeg's jpeg_gen_optimal_table).
// freq has one count per possible symbol value; symbols with zero count are
// omitted from the table. A sentinel symbol guarantees no code is all ones.
func BuildOptimalSpec(freq *[256]int64) (*HuffSpec, error) {
	var f [257]int64
	anyNonzero := false
	for i, v := range freq {
		if v < 0 {
			return nil, fmt.Errorf("jpegx: negative frequency for symbol %d", i)
		}
		f[i] = v
		if v > 0 {
			anyNonzero = true
		}
	}
	if !anyNonzero {
		return nil, errors.New("jpegx: no symbols to encode")
	}
	f[256] = 1 // sentinel: reserves the all-ones code

	var codesize [257]int
	var others [257]int
	for i := range others {
		others[i] = -1
	}

	for {
		// Find the two least-frequent nonzero entries (c1 smallest, then c2).
		c1, c2 := -1, -1
		v := int64(1) << 62
		for i := 0; i <= 256; i++ {
			if f[i] != 0 && f[i] <= v {
				v = f[i]
				c1 = i
			}
		}
		v = int64(1) << 62
		for i := 0; i <= 256; i++ {
			if f[i] != 0 && f[i] <= v && i != c1 {
				v = f[i]
				c2 = i
			}
		}
		if c2 < 0 {
			break // single tree remains
		}
		f[c1] += f[c2]
		f[c2] = 0
		codesize[c1]++
		for others[c1] >= 0 {
			c1 = others[c1]
			codesize[c1]++
		}
		others[c1] = c2
		codesize[c2]++
		for others[c2] >= 0 {
			c2 = others[c2]
			codesize[c2]++
		}
	}

	var bits [33]int
	for i := 0; i <= 256; i++ {
		if codesize[i] > 0 {
			if codesize[i] > 32 {
				return nil, errors.New("jpegx: huffman code length overflow")
			}
			bits[codesize[i]]++
		}
	}
	// Limit code lengths to 16 (Annex K.2 adjustment).
	for i := 32; i > 16; i-- {
		for bits[i] > 0 {
			j := i - 2
			for bits[j] == 0 {
				j--
			}
			bits[i] -= 2
			bits[i-1]++
			bits[j+1] += 2
			bits[j]--
		}
	}
	// Remove the sentinel's code.
	i := 16
	for bits[i] == 0 {
		i--
	}
	bits[i]--

	spec := &HuffSpec{}
	for l := 1; l <= 16; l++ {
		spec.Counts[l-1] = byte(bits[l])
	}
	// Symbols sorted by (code length, symbol value).
	type symLen struct {
		sym int
		l   int
	}
	var syms []symLen
	for s := 0; s < 256; s++ {
		if codesize[s] > 0 {
			syms = append(syms, symLen{s, codesize[s]})
		}
	}
	sort.Slice(syms, func(a, b int) bool {
		if syms[a].l != syms[b].l {
			return syms[a].l < syms[b].l
		}
		return syms[a].sym < syms[b].sym
	})
	for _, sl := range syms {
		spec.Symbols = append(spec.Symbols, byte(sl.sym))
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	return spec, nil
}
