package jpegx

import (
	"bufio"
	"fmt"
	"io"
	"math/bits"
	"sync"

	"p3/internal/work"
)

// EncodeOptions configures JPEG serialization.
type EncodeOptions struct {
	// OptimizeHuffman derives per-image optimal Huffman tables from the
	// symbol counts of the token pass that every encode runs, instead of
	// using the Annex-K tables; either way the tokens are then replayed
	// through the chosen tables. Progressive encoding always optimizes (the
	// standard tables lack EOB-run symbols).
	OptimizeHuffman bool

	// Progressive emits a progressive (SOF2) stream with the conventional
	// 10-scan script (spectral selection + successive approximation),
	// mirroring what PSPs like Facebook serve.
	Progressive bool

	// RestartInterval inserts RSTn markers every this many MCUs in baseline
	// scans. 0 disables restarts.
	RestartInterval int

	// Workers fans the token pass out over bands of MCU rows (baseline, no
	// restart markers). Symbol frequencies are summed across bands, so the
	// derived tables — and therefore the output bytes — are identical to a
	// sequential encode. nil runs sequentially.
	Workers *work.Pool

	// Tokens, when set, is the token buffer of a sequential token pass,
	// grown in place and left to the caller, instead of one from the
	// package's sync.Pool: a caller recycling its own working set then gets
	// the same buffer back whichever goroutine encodes. A banded pass
	// (Workers) records its first band here and takes the other bands'
	// buffers from the pool.
	Tokens *[]uint32
}

// EncodeCoeffs serializes a coefficient image to a JPEG stream without any
// further loss: decoding the output with Decode yields coefficient blocks
// identical to im. This is the path P3 uses to store its public and secret
// parts as standards-compliant JPEGs.
func EncodeCoeffs(w io.Writer, im *CoeffImage, opts *EncodeOptions) error {
	if opts == nil {
		opts = &EncodeOptions{}
	}
	if err := im.validate(); err != nil {
		return err
	}
	bufw := bufio.NewWriter(w)
	e := &encoder{w: bufw, img: im, opts: opts}
	var err error
	if opts.Progressive {
		err = e.encodeProgressive()
	} else {
		err = e.encodeBaseline()
	}
	if err != nil {
		return err
	}
	return bufw.Flush()
}

type encoder struct {
	w    *bufio.Writer
	img  *CoeffImage
	opts *EncodeOptions
}

func (e *encoder) writeMarker(m byte) error {
	_, err := e.w.Write([]byte{0xFF, m})
	return err
}

func (e *encoder) writeSegment(m byte, payload []byte) error {
	if len(payload) > 65533 {
		return fmt.Errorf("jpegx: segment 0x%02x payload too long (%d)", m, len(payload))
	}
	if err := e.writeMarker(m); err != nil {
		return err
	}
	n := len(payload) + 2
	if _, err := e.w.Write([]byte{byte(n >> 8), byte(n)}); err != nil {
		return err
	}
	_, err := e.w.Write(payload)
	return err
}

// writeHeaders emits SOI, preserved markers (or a default JFIF APP0), DQT,
// SOF and DRI.
func (e *encoder) writeHeaders(sofMarker byte) error {
	if err := e.writeMarker(mSOI); err != nil {
		return err
	}
	if len(e.img.Markers) == 0 {
		// Default JFIF 1.01 header, 1:1 aspect, no thumbnail.
		jfif := []byte{'J', 'F', 'I', 'F', 0, 1, 1, 0, 0, 1, 0, 1, 0, 0}
		if err := e.writeSegment(mAPP0, jfif); err != nil {
			return err
		}
	}
	for _, seg := range e.img.Markers {
		if err := e.writeSegment(seg.Marker, seg.Data); err != nil {
			return err
		}
	}
	// DQT: one segment per table, 8-bit precision (entries are ≤ 255 for
	// baseline; clamp defensively).
	for tq, q := range e.img.Quant {
		if q == nil {
			continue
		}
		payload := make([]byte, 1+64)
		payload[0] = byte(tq) // Pq=0
		for zz := 0; zz < 64; zz++ {
			v := q[zigzag[zz]]
			if v > 255 {
				v = 255
			}
			payload[1+zz] = byte(v)
		}
		if err := e.writeSegment(mDQT, payload); err != nil {
			return err
		}
	}
	// SOF.
	nc := len(e.img.Components)
	payload := make([]byte, 6+3*nc)
	payload[0] = 8 // precision
	payload[1] = byte(e.img.Height >> 8)
	payload[2] = byte(e.img.Height)
	payload[3] = byte(e.img.Width >> 8)
	payload[4] = byte(e.img.Width)
	payload[5] = byte(nc)
	for i := 0; i < nc; i++ {
		c := &e.img.Components[i]
		payload[6+3*i] = c.ID
		payload[7+3*i] = byte(c.H<<4 | c.V)
		payload[8+3*i] = byte(c.TqIndex)
	}
	if err := e.writeSegment(sofMarker, payload); err != nil {
		return err
	}
	if e.opts.RestartInterval > 0 && !e.opts.Progressive {
		ri := e.opts.RestartInterval
		if err := e.writeSegment(mDRI, []byte{byte(ri >> 8), byte(ri)}); err != nil {
			return err
		}
	}
	return nil
}

func (e *encoder) writeDHT(class, slot int, spec *HuffSpec) error {
	payload := make([]byte, 0, 1+16+len(spec.Symbols))
	payload = append(payload, byte(class<<4|slot))
	payload = append(payload, spec.Counts[:]...)
	payload = append(payload, spec.Symbols...)
	return e.writeSegment(mDHT, payload)
}

// writeSOS writes a scan header with the conventional table slots: luma
// uses tables 0, chroma tables 1.
func (e *encoder) writeSOS(sc *scanSpec) error {
	payload := make([]byte, 0, 4+2*len(sc.comps))
	payload = append(payload, byte(len(sc.comps)))
	for _, ci := range sc.comps {
		slot := byte(min(ci, 1))
		payload = append(payload, e.img.Components[ci].ID, slot<<4|slot)
	}
	payload = append(payload, byte(sc.ss), byte(sc.se), byte(sc.ah<<4|sc.al))
	return e.writeSegment(mSOS, payload)
}

// Tokens. Every encode records its entropy-coded symbols before it writes a
// byte: one compact token per emission, with each symbol's frequency counted
// for table derivation. writeCoded then derives the tables and replays the
// tokens through them, one linear pass with no second block walk and no
// re-derivation of magnitudes. A failing encode fails while recording, so it
// writes nothing.
//
// Token layout (32 bits): nb(5) | slot(1) | kind(2) | sym(8) | val(16).
// val holds the raw value bits that follow the symbol and nb their count;
// nb is explicit because EOBn symbols carry sym>>4 value bits, breaking any
// nb-from-sym rule. The DC and AC kinds equal their DHT table class. kind Raw
// carries bare bits with no symbol (progressive correction bits); the
// restart sentinel token has all other fields zero.
const (
	tokKindDC  = 0
	tokKindAC  = 1
	tokKindRaw = 2
	tokKindRST = 3

	tokRestart = uint32(tokKindRST) << 24
)

func token(slot int, kind uint32, sym byte, val uint32, nb uint) uint32 {
	return uint32(nb)<<27 | uint32(slot)<<26 | kind<<24 | uint32(sym)<<16 | val
}

// tokenBufs recycles token buffers (~4 B per coded symbol) across encodes.
var tokenBufs = sync.Pool{New: func() any { return new([]uint32) }}

// tokenBuf returns the token buffer of a sequential pass: the caller's own
// (EncodeOptions.Tokens) or a pooled one.
func (e *encoder) tokenBuf() *[]uint32 {
	if e.opts.Tokens != nil {
		return e.opts.Tokens
	}
	return tokenBufs.Get().(*[]uint32)
}

// putTokens returns a token buffer to the pool unless it is the caller's own.
func (e *encoder) putTokens(bufp *[]uint32) {
	if bufp != e.opts.Tokens {
		tokenBufs.Put(bufp)
	}
}

// emitter records entropy-coded symbols: it counts each symbol's frequency
// per table and appends one replay token per emission.
type emitter struct {
	freq   [2][2][256]int64 // [table class: tokKindDC, tokKindAC][slot]
	tokens []uint32
}

// newEmitter returns an emitter with zeroed counts, recording tokens into
// the (possibly recycled) buffer.
func newEmitter(tokens []uint32) *emitter {
	return &emitter{tokens: tokens[:0]}
}

// add accumulates another emitter's frequencies. Addition is commutative,
// so merging band-local counts in index order yields exactly the
// sequential pass's tables.
func (em *emitter) add(other *emitter) {
	for class := range em.freq {
		for s := range em.freq[class] {
			for i := range em.freq[class][s] {
				em.freq[class][s][i] += other.freq[class][s][i]
			}
		}
	}
}

// dcSym records a DC Huffman symbol fused with its nb trailing value bits.
func (em *emitter) dcSym(slot int, sym byte, val uint32, nb uint) {
	em.freq[tokKindDC][slot][sym]++
	em.tokens = append(em.tokens, token(slot, tokKindDC, sym, val, nb))
}

// acSym is dcSym for the AC table.
func (em *emitter) acSym(slot int, sym byte, val uint32, nb uint) {
	em.freq[tokKindAC][slot][sym]++
	em.tokens = append(em.tokens, token(slot, tokKindAC, sym, val, nb))
}

// raw records nb bare bits (nb ≤ 16) with no Huffman symbol.
func (em *emitter) raw(val uint32, nb uint) {
	if nb > 0 {
		em.tokens = append(em.tokens, token(0, tokKindRaw, 0, val, nb))
	}
}

// rawBits records a sequence of single bits, packed 16 per token.
func (em *emitter) rawBits(bs []byte) {
	var v uint32
	var n uint
	for _, b := range bs {
		v = v<<1 | uint32(b)
		if n++; n == 16 {
			em.raw(v, 16)
			v, n = 0, 0
		}
	}
	em.raw(v, n)
}

// scanSpec is one scan of a stream being written: its component indices
// (several only in a DC or baseline scan), spectral selection and
// successive approximation, and the token streams of its entropy-coded
// segment, replayed in order.
type scanSpec struct {
	comps  []int
	ss, se int
	ah, al int
	tokens [][]uint32
}

// writeCoded is the package's one entropy-coded writer. It derives a
// Huffman table per class and slot from counts (optimal when optimize, else
// Annex K), skipping a table that counted no symbols, then writes the
// headers, each slot's DC then AC table, every scan's SOS and replayed
// tokens, and EOI. It writes nothing if a table cannot be built.
func (e *encoder) writeCoded(sof byte, counts *emitter, optimize bool, scans []scanSpec) error {
	nSlots := min(len(e.img.Components), 2)
	annexK := [2][2]func() *HuffSpec{{StdDCLuma, StdDCChroma}, {StdACLuma, StdACChroma}}
	var specs [2][2]*HuffSpec // [class][slot]
	// Token bits 26..24 are slot|kind, so one 8-entry table serves the
	// replay; raw and restart tokens land on nil entries.
	var encs [8]*huffEncoder
	for s := range nSlots {
		for class, name := range [2]string{"DC", "AC"} {
			freq := &counts.freq[class][s]
			if *freq == ([256]int64{}) {
				continue
			}
			spec := annexK[class][s]()
			if optimize {
				var err error
				if spec, err = BuildOptimalSpec(freq); err != nil {
					return fmt.Errorf("jpegx: optimizing %s table %d: %w", name, s, err)
				}
			}
			enc, err := newHuffEncoder(spec)
			if err != nil {
				return err
			}
			specs[class][s], encs[s<<2|class] = spec, enc
		}
	}
	if err := e.writeHeaders(sof); err != nil {
		return err
	}
	for s := range nSlots {
		for class := range specs {
			if specs[class][s] != nil {
				if err := e.writeDHT(class, s, specs[class][s]); err != nil {
					return err
				}
			}
		}
	}
	bw := newBitWriter(e.w)
	rst := 0
	for i := range scans {
		sc := &scans[i]
		if err := e.writeSOS(sc); err != nil {
			return err
		}
		for _, tokens := range sc.tokens {
			if err := e.replayTokens(bw, &encs, tokens, &rst); err != nil {
				return err
			}
		}
		if err := bw.pad(); err != nil {
			return err
		}
	}
	return e.writeMarker(mEOI)
}

// replayTokens writes a recorded token stream through encs, indexed by
// token bits 26..24. Restart sentinels byte-align the writer and emit the
// next RSTn marker.
func (e *encoder) replayTokens(bw *bitWriter, encs *[8]*huffEncoder, tokens []uint32, rst *int) error {
	// The writer's accumulator, bit count and chunk buffer live in locals for
	// the whole replay (the loop is the encoder's hot path), synced back to
	// the writer only around the rare non-Huffman tokens and buffer flushes.
	// The drain logic mirrors bitWriter.writeBits: each token emits at most
	// 16+16 bits, so one ≥32 check per token keeps the count below 64.
	acc, bn := bw.acc, bw.n
	buf := bw.buf
	for _, t := range tokens {
		enc := encs[(t>>24)&7]
		if enc == nil {
			// Restart sentinel or raw bits: go through the writer.
			bw.acc, bw.n, bw.buf = acc, bn, buf
			if t == tokRestart {
				if err := bw.pad(); err != nil {
					return err
				}
				if err := e.writeMarker(byte(mRST0 + *rst%8)); err != nil {
					return err
				}
				*rst++
			} else {
				bw.writeBits(t&0xFFFF, uint(t>>27)) // tokKindRaw
			}
			acc, bn, buf = bw.acc, bw.n, bw.buf
			continue
		}
		nb := uint(t >> 27)
		sym := byte(t >> 16)
		wn := uint(enc.size[sym]) + nb
		acc = acc<<wn | uint64(enc.code[sym]<<nb|t&0xFFFF)
		bn += wn
		if bn < 32 {
			continue
		}
		bn -= 32
		w := uint32(acc >> bn)
		// Any byte equal to 0xFF? Equivalently: any zero byte in ^w.
		if x := ^w; (x-0x01010101)&^x&0x80808080 == 0 {
			buf = append(buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
		} else {
			for shift := 24; shift >= 0; shift -= 8 {
				b := byte(w >> shift)
				buf = append(buf, b)
				if b == 0xFF {
					buf = append(buf, 0x00)
				}
			}
		}
		if len(buf) >= 4096 {
			bw.buf = buf
			bw.flushBuf()
			buf = bw.buf
			if bw.err != nil {
				bw.acc, bw.n = acc, bn
				return bw.err
			}
		}
	}
	bw.acc, bw.n, bw.buf = acc, bn, buf
	return bw.err
}

// encodeBaseline writes a single interleaved baseline scan. The token pass
// fans out over bands of MCU rows on opts.Workers when the scan has no
// restart markers; the bands' summed counts equal the sequential pass's and
// their token streams, replayed in band order, its emission.
func (e *encoder) encodeBaseline() error {
	_, mcusY := e.img.mcuDims()
	bands := min(e.opts.Workers.Size(), mcusY)
	if e.opts.RestartInterval > 0 {
		// Restart markers reset predictors on a global MCU counter, which
		// crosses band boundaries; keep that rare path sequential.
		bands = 1
	}
	parts := make([]*emitter, bands)
	tokens := make([][]uint32, bands)
	bufps := make([]*[]uint32, bands)
	bufps[0] = e.tokenBuf()
	for i := 1; i < bands; i++ {
		bufps[i] = tokenBufs.Get().(*[]uint32)
	}
	defer func() {
		for _, bufp := range bufps {
			e.putTokens(bufp)
		}
	}()
	err := e.opts.Workers.Do(bands, func(i int) error {
		parts[i] = newEmitter(*bufps[i])
		err := e.baselineRows(parts[i], mcusY*i/bands, mcusY*(i+1)/bands)
		*bufps[i], tokens[i] = parts[i].tokens, parts[i].tokens
		return err
	})
	if err != nil {
		return err
	}
	for _, part := range parts[1:] {
		parts[0].add(part)
	}
	return e.writeCoded(mSOF0, parts[0], e.opts.OptimizeHuffman,
		[]scanSpec{{comps: e.allComponents(), se: 63, tokens: tokens}})
}

// allComponents lists every component: the one interleaved baseline scan's.
func (e *encoder) allComponents() []int {
	cis := make([]int, len(e.img.Components))
	for i := range cis {
		cis[i] = i
	}
	return cis
}

// baselineRows records MCU rows [my0, my1) of the interleaved baseline
// scan. A band seeds its DC predictors from the last block preceding it —
// DC prediction needs only the previous block's value, which is already in
// memory — so bands are independent. At each restart interval (a walk from
// row 0 only) it records a restart sentinel and resets the predictors.
func (e *encoder) baselineRows(em *emitter, my0, my1 int) error {
	dcPred := make([]int32, len(e.img.Components))
	for i := range dcPred {
		c := &e.img.Components[i]
		if my0 > 0 {
			// The block encoded immediately before this band, in scan order,
			// is the last block of the preceding MCU row.
			dcPred[i] = c.Blocks[(my0*c.V)*c.BlocksX-1][0]
		}
	}
	ri := e.opts.RestartInterval
	mcusX, mcusY := e.img.mcuDims()
	for my := my0; my < my1; my++ {
		for mx := 0; mx < mcusX; mx++ {
			for ci := range e.img.Components {
				c := &e.img.Components[ci]
				for v := 0; v < c.V; v++ {
					for h := 0; h < c.H; h++ {
						b := &c.Blocks[(my*c.V+v)*c.BlocksX+mx*c.H+h]
						if err := encodeBaselineBlock(em, min(ci, 1), b, &dcPred[ci]); err != nil {
							return err
						}
					}
				}
			}
			if mcu := my*mcusX + mx + 1; ri > 0 && mcu%ri == 0 && mcu < mcusX*mcusY {
				em.tokens = append(em.tokens, tokRestart)
				clear(dcPred)
			}
		}
	}
	return nil
}

// blockNZ builds the nonzero map of a block's AC coefficients in zigzag
// positions, branchlessly in one sequential sweep (v|−v has its sign bit set
// iff v ≠ 0).
func blockNZ(b *Block) uint64 {
	var m uint64
	for u := 1; u < 64; u++ {
		v := uint32(b[u])
		m |= uint64((v|-v)>>31) << unzigzag[u]
	}
	return m
}

// encodeBaselineBlock records one block, refusing coefficients a baseline
// stream cannot carry: a DC outside 16 bits (which 16-bit decoders cannot
// hold), a DC difference past category 11, an AC past category 10. Zero
// runs fall out of TrailingZeros64 gaps in the block's nonzero map instead
// of a 63-iteration test-and-branch walk — most AC coefficients are zero,
// and for P3's sparse secret parts nearly all of them are.
func encodeBaselineBlock(em *emitter, slot int, b *Block, pred *int32) error {
	if uint32(b[0]+32768) > 65535 {
		return fmt.Errorf("jpegx: DC %d out of range for baseline", b[0])
	}
	diff := b[0] - *pred
	*pred = b[0]
	n, val := magnitude(diff)
	if n > 11 {
		return fmt.Errorf("jpegx: DC difference %d out of range for baseline", diff)
	}
	em.dcSym(slot, byte(n), val, n)

	m := blockNZ(b)
	prev := 0
	for m != 0 {
		k := bits.TrailingZeros64(m)
		m &= m - 1
		v := b[zigzag[k]]
		run := k - prev - 1
		prev = k
		for run > 15 {
			em.acSym(slot, 0xF0, 0, 0) // ZRL
			run -= 16
		}
		n, val := magnitude(v)
		if n > 10 {
			return fmt.Errorf("jpegx: AC coefficient %d out of range for baseline", v)
		}
		em.acSym(slot, byte(run<<4)|byte(n), val, n)
	}
	if prev != 63 {
		em.acSym(slot, 0x00, 0, 0) // EOB
	}
	return nil
}

// checkCoeffRange validates that every DC fits 16 bits and every AC a
// baseline Huffman magnitude category. Progressive encodes run it up front;
// baseline encodes apply the same bounds per block as they record.
func (e *encoder) checkCoeffRange() error {
	for ci := range e.img.Components {
		c := &e.img.Components[ci]
		for bi := range c.Blocks {
			b := &c.Blocks[bi]
			if b[0] < -32768 || b[0] > 32767 {
				return fmt.Errorf("jpegx: component %d block %d: DC %d out of range", ci, bi, b[0])
			}
			for k := 1; k < 64; k++ {
				if v := b[k]; v < -1023 || v > 1023 {
					return fmt.Errorf("jpegx: component %d block %d: AC %d out of range", ci, bi, v)
				}
			}
		}
	}
	return nil
}
