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
	// OptimizeHuffman computes per-image optimal Huffman tables with a
	// statistics pass instead of using the Annex-K tables. Progressive
	// encoding always optimizes (the standard tables lack EOB-run symbols).
	OptimizeHuffman bool

	// Progressive emits a progressive (SOF2) stream with the conventional
	// 10-scan script (spectral selection + successive approximation),
	// mirroring what PSPs like Facebook serve.
	Progressive bool

	// RestartInterval inserts RSTn markers every this many MCUs in baseline
	// scans. 0 disables restarts.
	RestartInterval int

	// Workers fans the Huffman-optimization statistics pass out over bands
	// of MCU rows (baseline, no restart markers). Symbol frequencies are
	// summed across bands, so the derived tables — and therefore the output
	// bytes — are identical to a sequential encode. nil runs sequentially.
	Workers *work.Pool
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

func (e *encoder) writeSOS(scomps []scanComp, ss, se, ah, al int) error {
	payload := make([]byte, 0, 4+2*len(scomps))
	payload = append(payload, byte(len(scomps)))
	for _, sc := range scomps {
		c := &e.img.Components[sc.ci]
		payload = append(payload, c.ID, byte(sc.dcSel<<4|sc.acSel))
	}
	payload = append(payload, byte(ss), byte(se), byte(ah<<4|al))
	return e.writeSegment(mSOS, payload)
}

// Statistics-pass tokens. The old encoder walked every block twice when
// optimizing Huffman tables: once to count symbol frequencies, once to emit
// bits. The stats pass now also records one compact token per emission, so
// the second pass is a linear replay of the token stream — no block walk, no
// re-derivation of magnitudes — through the chosen tables.
//
// Token layout (32 bits): nb(5) | slot(1) | kind(2) | sym(8) | val(16).
// val holds the raw value bits that follow the symbol and nb their count;
// nb is explicit because EOBn symbols carry sym>>4 value bits, breaking any
// nb-from-sym rule. kind Raw carries bare bits with no symbol (progressive
// correction bits); the restart sentinel token has all other fields zero.
const (
	tokKindAC  = 0
	tokKindDC  = 1
	tokKindRaw = 2
	tokKindRST = 3

	tokRestart = uint32(tokKindRST) << 24
)

func token(slot int, kind uint32, sym byte, val uint32, nb uint) uint32 {
	return uint32(nb)<<27 | uint32(slot)<<26 | kind<<24 | uint32(sym)<<16 | val
}

// tokenBufs recycles statistics-pass token buffers (~4 B per coded symbol)
// across encodes.
var tokenBufs = sync.Pool{New: func() any { return new([]uint32) }}

// emitter either writes entropy-coded bits or, in statistics mode, counts
// symbol frequencies and records replay tokens for optimal-table encoding.
type emitter struct {
	bw     *bitWriter
	dcEnc  [2]*huffEncoder
	acEnc  [2]*huffEncoder
	dcFreq [2]*[256]int64
	acFreq [2]*[256]int64
	stats  bool
	tokens []uint32
}

// newStatsEmitter returns an emitter in statistics mode with zeroed
// frequency tables, recording tokens into the (possibly recycled) buffer.
func newStatsEmitter(tokens []uint32) *emitter {
	em := &emitter{stats: true, tokens: tokens[:0]}
	for i := range em.dcFreq {
		em.dcFreq[i] = &[256]int64{}
		em.acFreq[i] = &[256]int64{}
	}
	return em
}

// add accumulates another statistics emitter's frequencies. Addition is
// commutative, so merging band-local counts in index order yields exactly
// the sequential pass's tables.
func (em *emitter) add(other *emitter) {
	for s := range em.dcFreq {
		for i := range em.dcFreq[s] {
			em.dcFreq[s][i] += other.dcFreq[s][i]
			em.acFreq[s][i] += other.acFreq[s][i]
		}
	}
}

// dcSym emits a DC Huffman symbol fused with its nb trailing value bits; in
// statistics mode it counts the symbol and records a replay token instead.
func (em *emitter) dcSym(slot int, sym byte, val uint32, nb uint) {
	if em.stats {
		em.dcFreq[slot][sym]++
		em.tokens = append(em.tokens, token(slot, tokKindDC, sym, val, nb))
		return
	}
	enc := em.dcEnc[slot]
	em.bw.writeBits(enc.code[sym]<<nb|val, uint(enc.size[sym])+nb)
}

// acSym is dcSym for the AC table.
func (em *emitter) acSym(slot int, sym byte, val uint32, nb uint) {
	if em.stats {
		em.acFreq[slot][sym]++
		em.tokens = append(em.tokens, token(slot, tokKindAC, sym, val, nb))
		return
	}
	enc := em.acEnc[slot]
	em.bw.writeBits(enc.code[sym]<<nb|val, uint(enc.size[sym])+nb)
}

// raw emits nb bare bits (nb ≤ 16) with no Huffman symbol.
func (em *emitter) raw(val uint32, nb uint) {
	if nb == 0 {
		return
	}
	if em.stats {
		em.tokens = append(em.tokens, token(0, tokKindRaw, 0, val, nb))
		return
	}
	em.bw.writeBits(val, nb)
}

// rawBits emits a sequence of single bits, packed 16 per token/write.
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

// restart records a restart-marker boundary in the token stream.
func (em *emitter) restart() {
	em.tokens = append(em.tokens, tokRestart)
}

// replayTokens re-emits a recorded token stream through em's encoders.
// Restart sentinels byte-align the writer and emit the next RSTn marker.
func (e *encoder) replayTokens(em *emitter, tokens []uint32, rst *int) error {
	bw := em.bw
	// Token bits 26..24 are slot|kind, so one 8-entry table replaces the
	// kind switch plus slot indexing in the per-token loop; raw and restart
	// tokens land on nil entries and take the rare path.
	var encs [8]*huffEncoder
	encs[tokKindAC] = em.acEnc[0]
	encs[4|tokKindAC] = em.acEnc[1]
	encs[tokKindDC] = em.dcEnc[0]
	encs[4|tokKindDC] = em.dcEnc[1]
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

// encodeBaseline writes a single interleaved baseline scan.
func (e *encoder) encodeBaseline() error {
	gray := len(e.img.Components) == 1
	nSlots := 2
	if gray {
		nSlots = 1
	}

	dcSpecs := [2]*HuffSpec{StdDCLuma(), StdDCChroma()}
	acSpecs := [2]*HuffSpec{StdACLuma(), StdACChroma()}
	var parts []*emitter
	var bufps []*[]uint32
	if e.opts.OptimizeHuffman {
		// The statistics pass validates every coefficient's magnitude
		// category before a single output byte is written, so the separate
		// checkCoeffRange walk is skipped on this path.
		var err error
		parts, bufps, err = e.baselineStats()
		if err != nil {
			return err
		}
		defer func() {
			for i, bufp := range bufps {
				*bufp = parts[i].tokens // return the grown buffer, not the pre-append one
				tokenBufs.Put(bufp)
			}
		}()
		sum := parts[0]
		for _, part := range parts[1:] {
			sum.add(part)
		}
		for s := 0; s < nSlots; s++ {
			spec, err := BuildOptimalSpec(sum.dcFreq[s])
			if err != nil {
				return fmt.Errorf("jpegx: optimizing DC table %d: %w", s, err)
			}
			dcSpecs[s] = spec
			spec, err = BuildOptimalSpec(sum.acFreq[s])
			if err != nil {
				return fmt.Errorf("jpegx: optimizing AC table %d: %w", s, err)
			}
			acSpecs[s] = spec
		}
	} else if err := e.checkCoeffRange(); err != nil {
		return err
	}

	if err := e.writeHeaders(mSOF0); err != nil {
		return err
	}
	for s := 0; s < nSlots; s++ {
		if err := e.writeDHT(0, s, dcSpecs[s]); err != nil {
			return err
		}
		if err := e.writeDHT(1, s, acSpecs[s]); err != nil {
			return err
		}
	}
	scomps := e.allComponentsScan()
	if err := e.writeSOS(scomps, 0, 63, 0, 0); err != nil {
		return err
	}

	em := &emitter{bw: newBitWriter(e.w)}
	for s := 0; s < nSlots; s++ {
		var err error
		if em.dcEnc[s], err = newHuffEncoder(dcSpecs[s]); err != nil {
			return err
		}
		if em.acEnc[s], err = newHuffEncoder(acSpecs[s]); err != nil {
			return err
		}
	}
	if parts != nil {
		// Replay the recorded token streams in band order: one linear pass,
		// no second block walk.
		rst := 0
		for _, part := range parts {
			if err := e.replayTokens(em, part.tokens, &rst); err != nil {
				return err
			}
		}
	} else if err := e.baselineScan(em); err != nil {
		return err
	}
	if err := em.bw.pad(); err != nil {
		return err
	}
	return e.writeMarker(mEOI)
}

// allComponentsScan builds the scan-component list with the conventional
// slot assignment: luma uses tables 0, chroma tables 1.
func (e *encoder) allComponentsScan() []scanComp {
	scomps := make([]scanComp, len(e.img.Components))
	for i := range scomps {
		slot := 0
		if i > 0 {
			slot = 1
		}
		scomps[i] = scanComp{ci: i, dcSel: slot, acSel: slot}
	}
	return scomps
}

// baselineStats runs the statistics pass, fanned out over bands of MCU rows
// on opts.Workers when the scan has no restart markers. Each band seeds its
// DC predictors from the last block preceding it — DC prediction needs only
// the previous block's value, which is already in memory — so bands are
// independent and their summed counts equal the sequential pass's exactly;
// each band's token stream is replayed in band order, which reproduces the
// sequential emission byte for byte. On error all token buffers have been
// returned to the pool; on success the caller owns them.
func (e *encoder) baselineStats() ([]*emitter, []*[]uint32, error) {
	pool := e.opts.Workers
	_, mcusY := e.img.mcuDims()
	bands := pool.Size()
	if bands > mcusY {
		bands = mcusY
	}
	if bands <= 1 || e.opts.RestartInterval > 0 {
		// Restart markers reset predictors on a global MCU counter, which
		// crosses band boundaries; keep that rare path sequential.
		bufp := tokenBufs.Get().(*[]uint32)
		em := newStatsEmitter(*bufp)
		err := e.baselineScan(em)
		*bufp = em.tokens
		if err != nil {
			tokenBufs.Put(bufp)
			return nil, nil, err
		}
		return []*emitter{em}, []*[]uint32{bufp}, nil
	}
	parts := make([]*emitter, bands)
	bufps := make([]*[]uint32, bands)
	for i := range bufps {
		bufps[i] = tokenBufs.Get().(*[]uint32)
	}
	err := pool.Do(bands, func(i int) error {
		part := newStatsEmitter(*bufps[i])
		parts[i] = part
		err := e.baselineStatsRows(part, mcusY*i/bands, mcusY*(i+1)/bands)
		*bufps[i] = part.tokens
		return err
	})
	if err != nil {
		for _, bufp := range bufps {
			tokenBufs.Put(bufp)
		}
		return nil, nil, err
	}
	return parts, bufps, nil
}

// baselineStatsRows feeds MCU rows [my0, my1) to a statistics emitter,
// assuming no restart markers.
func (e *encoder) baselineStatsRows(em *emitter, my0, my1 int) error {
	scomps := e.allComponentsScan()
	dcPred := make([]int32, len(e.img.Components))
	for i := range dcPred {
		c := &e.img.Components[i]
		if my0 > 0 {
			// The block encoded immediately before this band, in scan order,
			// is the last block of the preceding MCU row.
			dcPred[i] = c.Blocks[(my0*c.V)*c.BlocksX-1][0]
		}
	}
	mcusX, _ := e.img.mcuDims()
	for my := my0; my < my1; my++ {
		for mx := 0; mx < mcusX; mx++ {
			for _, sc := range scomps {
				c := &e.img.Components[sc.ci]
				for v := 0; v < c.V; v++ {
					for h := 0; h < c.H; h++ {
						b := &c.Blocks[(my*c.V+v)*c.BlocksX+mx*c.H+h]
						if err := encodeBaselineBlock(em, sc.dcSel, b, &dcPred[sc.ci]); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// baselineScan runs the MCU walk once, feeding the emitter.
func (e *encoder) baselineScan(em *emitter) error {
	scomps := e.allComponentsScan()
	dcPred := make([]int32, len(e.img.Components))
	ri := e.opts.RestartInterval
	mcusX, mcusY := e.img.mcuDims()
	mcu := 0
	rst := 0
	for my := 0; my < mcusY; my++ {
		for mx := 0; mx < mcusX; mx++ {
			for _, sc := range scomps {
				c := &e.img.Components[sc.ci]
				for v := 0; v < c.V; v++ {
					for h := 0; h < c.H; h++ {
						b := &c.Blocks[(my*c.V+v)*c.BlocksX+mx*c.H+h]
						if err := encodeBaselineBlock(em, sc.dcSel, b, &dcPred[sc.ci]); err != nil {
							return err
						}
					}
				}
			}
			mcu++
			if ri > 0 && mcu%ri == 0 && !(my == mcusY-1 && mx == mcusX-1) {
				if em.stats {
					em.restart()
				} else {
					if err := em.bw.pad(); err != nil {
						return err
					}
					if err := e.writeMarker(byte(mRST0 + rst%8)); err != nil {
						return err
					}
				}
				rst++
				for i := range dcPred {
					dcPred[i] = 0
				}
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

// encodeBaselineBlock emits one block. Zero runs fall out of
// TrailingZeros64 gaps in the block's nonzero map instead of a 63-iteration
// test-and-branch walk — most AC coefficients are zero, and for P3's sparse
// secret parts nearly all of them are.
func encodeBaselineBlock(em *emitter, slot int, b *Block, pred *int32) error {
	diff := b[0] - *pred
	*pred = b[0]
	n, val := magnitude(diff)
	if n > 11 {
		return fmt.Errorf("jpegx: DC difference %d out of baseline range", diff)
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
			return fmt.Errorf("jpegx: AC coefficient %d out of baseline range", v)
		}
		em.acSym(slot, byte(run<<4)|byte(n), val, n)
	}
	if prev != 63 {
		em.acSym(slot, 0x00, 0, 0) // EOB
	}
	return nil
}

// checkCoeffRange validates that all coefficients fit baseline Huffman
// magnitude categories before any bytes are written.
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
