package jpegx

import (
	"bufio"
	"errors"
	"fmt"
	"io"
)

// Fused split capture. P3's hot path is split = decode + two encodes, and on
// the canonical baseline shape (one interleaved scan covering all components)
// the structure of both output parts is fully determined by the source's
// entropy stream as it decodes: every nonzero source coefficient yields a
// nonzero public coefficient at the same position (value clipped to ±T), so
// the public part's zero runs are the source's, and the sparse secret
// coefficients fall out of the same walk. The public runs are re-coded the
// way the encoder codes them, not copied: a ZRL is emitted only before a
// non-zero, and an EOB exactly when the last non-zero is not at k = 63, so a
// source that spends redundant ZRLs still yields the reference bytes.
// decodeBaselineBlock therefore records, during a single decode, the complete
// entropy-coding token streams and symbol frequencies of both parts into a
// SplitCapture; encoding a part is then table derivation plus a linear token
// replay — no coefficient images for the parts, no separate split walk, no
// statistics pass.

// SplitCapture holds the per-part token streams and symbol statistics
// captured by DecodeBytesSplit. The two parts serialize independently with
// EncodePublic and EncodeSecret (safe to run concurrently: both only read the
// capture); Release returns the internal buffers to the encoder's pools.
type SplitCapture struct {
	threshold int32
	tn        uint   // magnitude category of the threshold (clipped pub values are ±T → +T)
	tval      uint32 // value bits of +T
	pub, sec  *emitter
	pubBufp   *[]uint32
	secBufp   *[]uint32

	// secDCPred tracks the secret part's own DC prediction chain. The secret
	// DC equals the source DC, but the output stream has no restart markers,
	// so its predictor must run continuously even when the source's resets.
	secDCPred [4]int32
	// The current block: its entropy-table slot and the public part's AC
	// frequencies for that slot (held here rather than in the decoder's
	// loop, which is short of registers), the source ZRLs decoded since its
	// last non-zero, and the zig-zag position of its last secret non-zero
	// (0 before the first).
	slot    int
	pubAC   *[256]int64
	zrl     int
	secPrev int

	// bad marks a stream shape the fused walk does not mirror (progressive,
	// multiple scans, non-canonical scan order); the capture is abandoned.
	bad bool
}

func newSplitCapture(threshold int32) *SplitCapture {
	pb := tokenBufs.Get().(*[]uint32)
	sb := tokenBufs.Get().(*[]uint32)
	tn, tval := magnitude(threshold)
	return &SplitCapture{
		threshold: threshold,
		tn:        tn,
		tval:      tval,
		pub:       newStatsEmitter(*pb),
		sec:       newStatsEmitter(*sb),
		pubBufp:   pb,
		secBufp:   sb,
	}
}

// Release returns the capture's token buffers to the pool. The capture must
// not be used afterwards. Release is idempotent and nil-safe.
func (c *SplitCapture) Release() {
	if c == nil || c.pub == nil {
		return
	}
	*c.pubBufp = c.pub.tokens
	*c.secBufp = c.sec.tokens
	tokenBufs.Put(c.pubBufp)
	tokenBufs.Put(c.secBufp)
	c.pub, c.sec, c.pubBufp, c.secBufp = nil, nil, nil, nil
}

// eligibleScan reports whether the current scan is the canonical shape the
// fused walk mirrors: the first and only scan, interleaved over all
// components in declaration order (the universal baseline layout). For
// single-component images the scan walk uses the component's true block
// extent while the encoder walks the full MCU grid, so sampling factors must
// be 1×1 for the two walks to coincide.
func (c *SplitCapture) eligibleScan(d *decoder, scomps []scanComp) bool {
	if d.scans != 1 || len(scomps) != len(d.img.Components) {
		return false
	}
	for i, sc := range scomps {
		if sc.ci != i {
			return false
		}
	}
	if len(scomps) == 1 {
		cp := &d.img.Components[0]
		if cp.H != 1 || cp.V != 1 {
			return false
		}
	}
	return true
}

// DecodeBytesSplit is DecodeBytesInto that additionally captures the P3
// threshold split of the stream at the given threshold while it decodes. On
// the canonical baseline shape it returns a non-nil *SplitCapture holding
// both parts' complete entropy statistics and token streams (the caller owns
// it and must Release it); for other stream shapes (progressive, multi-scan,
// subsampled grayscale) the capture comes back nil and the caller runs the
// reference split pipeline over the returned image. threshold must be ≥ 1;
// coefficient range validation matches what encoding the parts would enforce.
func DecodeBytesSplit(data []byte, threshold int, dst *CoeffImage, s *DecoderScratch) (*CoeffImage, *SplitCapture, error) {
	if threshold < 1 {
		return nil, nil, errors.New("jpegx: split threshold must be >= 1")
	}
	if dst == nil {
		dst = &CoeffImage{}
	}
	if s == nil {
		s = &DecoderScratch{}
	}
	resetForDecode(dst)
	s.br.reset(data)
	d := &s.dec
	*d = decoder{r: &s.br, img: dst, s: s}
	cap := newSplitCapture(int32(threshold))
	d.tee = cap
	err := d.run()
	d.tee = nil
	s.br.reset(nil)
	if err != nil {
		cap.Release()
		return nil, nil, err
	}
	if cap.bad || d.scans != 1 {
		cap.Release()
		return dst, nil, nil
	}
	return dst, cap, nil
}

// startBlock records a block's DC. The public DC is always zero (category
// 0, no value bits); the secret DC is the source DC on its own prediction
// chain.
func (c *SplitCapture) startBlock(dc int32, slot, ci int) error {
	diff := dc - c.secDCPred[ci]
	c.secDCPred[ci] = dc
	dn, dval := magnitude(diff)
	if dn > 11 {
		return fmt.Errorf("jpegx: DC difference %d out of baseline range", diff)
	}
	c.sec.dcSym(slot, byte(dn), dval, dn)
	c.pub.dcSym(slot, 0, 0, 0)
	c.slot, c.pubAC, c.zrl, c.secPrev = slot, c.pub.acFreq[slot], 0, 0
	return nil
}

// coefficient records a non-zero source coefficient v at zig-zag position k
// that the decoder's inline path does not: one after a ZRL, or one clipped
// to ±T. The ZRLs are held back until this non-zero, so a public run never
// ends in ZRLs however the source coded its trailing zeros; a source run
// nibble is at most 15, so the ZRL count is the canonical one. A clipped
// coefficient becomes +T in the public part, under the source symbol's run,
// and its excess sign(v)·(|v|−T) goes to the secret part on the secret's
// own run accounting.
func (c *SplitCapture) coefficient(k int, sym byte, v int32) error {
	slot := c.slot
	for ; c.zrl > 0; c.zrl-- {
		c.pub.acSym(slot, 0xF0, 0, 0)
	}
	t := c.threshold
	if uint32(v+t) <= uint32(2*t) {
		n, val := magnitude(v)
		c.pub.acSym(slot, sym, val, n)
		return nil
	}
	sv := v - t
	if v < 0 {
		sv = v + t
	}
	sn, sval := magnitude(sv)
	if sn > 10 {
		return fmt.Errorf("jpegx: AC coefficient %d out of baseline range", v)
	}
	c.pub.acSym(slot, sym&0xF0|byte(c.tn), c.tval, c.tn)
	run := k - c.secPrev - 1
	c.secPrev = k
	for ; run > 15; run -= 16 {
		c.sec.acSym(slot, 0xF0, 0, 0)
	}
	c.sec.acSym(slot, byte(run<<4)|byte(sn), sval, sn)
	return nil
}

// endBlock closes both parts' blocks with an EOB unless their last non-zero
// sits at k = 63, the encoder's rule. k is where the decoder's walk ended:
// 64 or past it after a final non-zero at 63 or a final ZRL, below 64 at
// an EOB.
func (c *SplitCapture) endBlock(k int) {
	slot := c.slot
	if k < 64 || c.zrl != 0 {
		c.pub.acSym(slot, 0x00, 0, 0)
	}
	if c.secPrev != 63 {
		c.sec.acSym(slot, 0x00, 0, 0)
	}
}

// EncodePublic serializes the captured public part as a baseline JPEG.
// im is the decoded source image the capture came from; it supplies the
// geometry, quantization tables and (already filtered) marker segments —
// both parts share them with the source by construction.
func (c *SplitCapture) EncodePublic(w io.Writer, im *CoeffImage, optimize bool) error {
	return c.encodePart(w, im, c.pub, optimize)
}

// EncodeSecret serializes the captured secret part as a baseline JPEG.
func (c *SplitCapture) EncodeSecret(w io.Writer, im *CoeffImage, optimize bool) error {
	return c.encodePart(w, im, c.sec, optimize)
}

func (c *SplitCapture) encodePart(w io.Writer, im *CoeffImage, part *emitter, optimize bool) error {
	if part == nil {
		return errors.New("jpegx: split capture already released")
	}
	if err := im.validate(); err != nil {
		return err
	}
	bufw := bufio.NewWriter(w)
	e := &encoder{w: bufw, img: im, opts: &EncodeOptions{}}
	nSlots := 2
	if len(im.Components) == 1 {
		nSlots = 1
	}
	dcSpecs := [2]*HuffSpec{StdDCLuma(), StdDCChroma()}
	acSpecs := [2]*HuffSpec{StdACLuma(), StdACChroma()}
	if optimize {
		for s := 0; s < nSlots; s++ {
			spec, err := BuildOptimalSpec(part.dcFreq[s])
			if err != nil {
				return fmt.Errorf("jpegx: optimizing DC table %d: %w", s, err)
			}
			dcSpecs[s] = spec
			spec, err = BuildOptimalSpec(part.acFreq[s])
			if err != nil {
				return fmt.Errorf("jpegx: optimizing AC table %d: %w", s, err)
			}
			acSpecs[s] = spec
		}
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
	if err := e.writeSOS(e.allComponentsScan(), 0, 63, 0, 0); err != nil {
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
	rst := 0
	if err := e.replayTokens(em, part.tokens, &rst); err != nil {
		return err
	}
	if err := em.bw.pad(); err != nil {
		return err
	}
	if err := e.writeMarker(mEOI); err != nil {
		return err
	}
	return bufw.Flush()
}
