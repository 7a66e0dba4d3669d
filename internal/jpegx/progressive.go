package jpegx

import "fmt"

// Progressive (SOF2) encoding with the conventional scan script used by
// jpegtran and the IJG library: an initial coarse DC scan, spectrally
// selected AC bands with successive approximation, then refinement scans.
// PSPs such as Facebook re-encode uploads to exactly this kind of stream
// (§2.1 of the paper), so the PSP simulator uses this path.

// progressiveScript returns the standard 10-scan script (3 components) or
// its grayscale reduction.
func progressiveScript(nComps int) []scanSpec {
	if nComps == 1 {
		return []scanSpec{
			{comps: []int{0}, ss: 0, se: 0, ah: 0, al: 1},
			{comps: []int{0}, ss: 1, se: 5, ah: 0, al: 2},
			{comps: []int{0}, ss: 6, se: 63, ah: 0, al: 2},
			{comps: []int{0}, ss: 1, se: 63, ah: 2, al: 1},
			{comps: []int{0}, ss: 0, se: 0, ah: 1, al: 0},
			{comps: []int{0}, ss: 1, se: 63, ah: 1, al: 0},
		}
	}
	return []scanSpec{
		{comps: []int{0, 1, 2}, ss: 0, se: 0, ah: 0, al: 1},
		{comps: []int{0}, ss: 1, se: 5, ah: 0, al: 2},
		{comps: []int{2}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{1}, ss: 1, se: 63, ah: 0, al: 1},
		{comps: []int{0}, ss: 6, se: 63, ah: 0, al: 2},
		{comps: []int{0}, ss: 1, se: 63, ah: 2, al: 1},
		{comps: []int{0, 1, 2}, ss: 0, se: 0, ah: 1, al: 0},
		{comps: []int{2}, ss: 1, se: 63, ah: 1, al: 0},
		{comps: []int{1}, ss: 1, se: 63, ah: 1, al: 0},
		{comps: []int{0}, ss: 1, se: 63, ah: 1, al: 0},
	}
}

// progState carries EOB-run and correction-bit state across blocks of one
// scan; one instance is reused for every scan of the script so the bit
// buffers are allocated once per encode. eobBits holds refinement correction
// bits owned by blocks already absorbed into the pending EOB run; they are
// emitted right after the EOBn symbol, in block order, which is where the
// decoder's EOB-run refinement path consumes them. blockBits is
// encodeACRefineBlock's per-block staging buffer.
type progState struct {
	em        *emitter
	slot      int
	eobRun    int32
	eobBits   []byte
	blockBits []byte
}

// resetFor prepares the reused state for one scan's walk.
func (ps *progState) resetFor(em *emitter, slot int) {
	ps.em = em
	ps.slot = slot
	ps.eobRun = 0
	ps.eobBits = ps.eobBits[:0]
	ps.blockBits = ps.blockBits[:0]
}

func (ps *progState) flushEOBRun() {
	if ps.eobRun > 0 {
		nbits := uint(0)
		for t := ps.eobRun >> 1; t > 0; t >>= 1 {
			nbits++
		}
		ps.em.acSym(ps.slot, byte(nbits<<4), uint32(ps.eobRun)&(1<<nbits-1), nbits)
		ps.eobRun = 0
	}
	ps.em.rawBits(ps.eobBits)
	ps.eobBits = ps.eobBits[:0]
}

// encodeProgressive records the whole script, then writes it with optimal
// tables: the Annex-K tables lack EOBn (n>0) symbols. Each scan's
// entropy-coded segment is a replay of its token range.
func (e *encoder) encodeProgressive() error {
	if err := e.checkCoeffRange(); err != nil {
		return err
	}
	script := progressiveScript(len(e.img.Components))
	bufp := e.tokenBuf()
	em := newEmitter(*bufp)
	defer func() {
		*bufp = em.tokens
		e.putTokens(bufp)
	}()
	var ps progState
	scanEnd := make([]int, len(script))
	for i, sc := range script {
		if err := e.runScan(sc, em, &ps); err != nil {
			return err
		}
		scanEnd[i] = len(em.tokens)
	}
	start := 0
	for i := range script {
		script[i].tokens = [][]uint32{em.tokens[start:scanEnd[i]]}
		start = scanEnd[i]
	}
	return e.writeCoded(mSOF2, em, true, script)
}

// runScan walks the blocks of one progressive scan in scan order, emitting
// symbols to em; ps is the reused per-scan state.
func (e *encoder) runScan(sc scanSpec, em *emitter, ps *progState) error {
	if sc.ss == 0 {
		return e.runDCScan(sc, em)
	}
	if len(sc.comps) != 1 {
		return fmt.Errorf("jpegx: AC scan with %d components", len(sc.comps))
	}
	return e.runACScan(sc, em, ps)
}

func (e *encoder) runDCScan(sc scanSpec, em *emitter) error {
	dcPred := make([]int32, len(e.img.Components))
	mcusX, mcusY := e.img.mcuDims()
	interleaved := len(sc.comps) > 1

	visit := func(ci int, b *Block) error {
		slot := min(ci, 1)
		if sc.ah == 0 {
			// First pass: code (DC >> Al) differentially. Per T.81 the DC
			// point transform is an arithmetic shift (toward -inf), unlike
			// the AC transform which truncates the magnitude toward zero;
			// the refinement pass then ORs in the low bits one at a time.
			v := b[0] >> uint(sc.al)
			diff := v - dcPred[ci]
			dcPred[ci] = v
			n, val := magnitude(diff)
			if n > 15 {
				return fmt.Errorf("jpegx: DC difference %d out of range", diff)
			}
			em.dcSym(slot, byte(n), val, n)
			return nil
		}
		// Refinement: one bit per block.
		em.raw(uint32(b[0]>>uint(sc.al))&1, 1)
		return nil
	}

	if interleaved {
		for my := 0; my < mcusY; my++ {
			for mx := 0; mx < mcusX; mx++ {
				for _, ci := range sc.comps {
					c := &e.img.Components[ci]
					for v := 0; v < c.V; v++ {
						for h := 0; h < c.H; h++ {
							if err := visit(ci, c.Block(mx*c.H+h, my*c.V+v)); err != nil {
								return err
							}
						}
					}
				}
			}
		}
		return nil
	}
	ci := sc.comps[0]
	c := &e.img.Components[ci]
	bw, bh := e.compScanDimsEnc(c)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			if err := visit(ci, c.Block(bx, by)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (e *encoder) runACScan(sc scanSpec, em *emitter, ps *progState) error {
	ci := sc.comps[0]
	slot := min(ci, 1)
	c := &e.img.Components[ci]
	bw, bh := e.compScanDimsEnc(c)
	ps.resetFor(em, slot)
	for by := 0; by < bh; by++ {
		for bx := 0; bx < bw; bx++ {
			b := c.Block(bx, by)
			var err error
			if sc.ah == 0 {
				err = encodeACFirstBlock(ps, b, sc.ss, sc.se, sc.al)
			} else {
				err = encodeACRefineBlock(ps, b, sc.ss, sc.se, sc.al)
			}
			if err != nil {
				return err
			}
		}
	}
	ps.flushEOBRun()
	return nil
}

// pointTransform applies the JPEG point transform: arithmetic shift that
// rounds toward zero (divide magnitude by 2^al, keep sign).
func pointTransform(v int32, al int) int32 {
	if v >= 0 {
		return v >> uint(al)
	}
	return -((-v) >> uint(al))
}

func encodeACFirstBlock(ps *progState, b *Block, ss, se, al int) error {
	run := 0
	for k := ss; k <= se; k++ {
		v := pointTransform(b[zigzag[k]], al)
		if v == 0 {
			run++
			continue
		}
		ps.flushEOBRun()
		for run > 15 {
			ps.em.acSym(ps.slot, 0xF0, 0, 0)
			run -= 16
		}
		n, val := magnitude(v)
		if n > 10 {
			return fmt.Errorf("jpegx: AC coefficient %d out of range", v)
		}
		ps.em.acSym(ps.slot, byte(run<<4)|byte(n), val, n)
		run = 0
	}
	if run > 0 {
		ps.eobRun++
		if ps.eobRun == 0x7FFF {
			ps.flushEOBRun()
		}
	}
	return nil
}

func encodeACRefineBlock(ps *progState, b *Block, ss, se, al int) error {
	// absVals[k] = |coeff| >> Al for the band; eobPos = last index with
	// absVal exactly 1 (a newly significant coefficient in this scan).
	var absVals [64]int32
	eobPos := ss - 1
	for k := ss; k <= se; k++ {
		v := b[zigzag[k]]
		if v < 0 {
			v = -v
		}
		v >>= uint(al)
		absVals[k] = v
		if v == 1 {
			eobPos = k
		}
	}
	run := 0
	blockBits := ps.blockBits[:0] // correction bits gathered while scanning this block
	emitBlockBits := func() {
		ps.em.rawBits(blockBits)
		blockBits = blockBits[:0]
	}
	for k := ss; k <= se; k++ {
		v := absVals[k]
		if v == 0 {
			run++
			continue
		}
		for run > 15 && k <= eobPos {
			ps.flushEOBRun()
			ps.em.acSym(ps.slot, 0xF0, 0, 0)
			run -= 16
			emitBlockBits()
		}
		if v > 1 {
			// History coefficient: append its correction bit; the run of
			// zeroes is not interrupted.
			blockBits = append(blockBits, byte(v&1))
			continue
		}
		// Newly significant coefficient: EOB run (with its bits), symbol,
		// sign bit, then the correction bits passed over in this block.
		ps.flushEOBRun()
		sign := uint32(0)
		if b[zigzag[k]] >= 0 {
			sign = 1
		}
		ps.em.acSym(ps.slot, byte(run<<4)|1, sign, 1)
		emitBlockBits()
		run = 0
	}
	ps.blockBits = blockBits // keep grown capacity for the next block
	if run > 0 || len(blockBits) > 0 {
		ps.eobRun++
		ps.eobBits = append(ps.eobBits, blockBits...)
		if ps.eobRun == 0x7FFF || len(ps.eobBits) > 900 {
			ps.flushEOBRun()
		}
	}
	return nil
}

// compScanDimsEnc mirrors decoder.compScanDims for the encoder.
func (e *encoder) compScanDimsEnc(c *Component) (int, int) {
	hMax, vMax := e.img.MaxSampling()
	cw := (e.img.Width*c.H + hMax - 1) / hMax
	ch := (e.img.Height*c.V + vMax - 1) / vMax
	return (cw + 7) / 8, (ch + 7) / 8
}
