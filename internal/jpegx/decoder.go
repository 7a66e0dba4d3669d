package jpegx

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"p3/internal/work"
)

// FormatError reports that the input is not a JPEG stream this codec
// understands.
type FormatError string

func (e FormatError) Error() string { return "jpegx: " + string(e) }

type decoder struct {
	r   *byteCursor
	img *CoeffImage

	dcTab [4]*huffDecoder
	acTab [4]*huffDecoder

	restartIntvl int
	progressive  bool
	sawSOF       bool
	scans        int
	eobRun       int32

	// tee, when non-nil, captures the P3 threshold split of the stream as it
	// decodes (see DecodeBytesSplit).
	tee *SplitCapture

	// pending holds a marker byte consumed by the entropy decoder that the
	// segment loop still needs to process.
	pending byte

	// s holds the reusable state (always non-nil): table storage, the bit
	// reader, and the per-scan buffers.
	s *DecoderScratch
}

// DecoderScratch is the reusable working set of DecodeInto: the Huffman
// decoding tables (with their fast LUTs), the entropy bit reader, and the
// per-scan prediction and scan-component buffers. The zero value is ready to
// use. A scratch must not be shared by concurrent decodes; pooled callers
// hand one scratch per in-flight decode.
type DecoderScratch struct {
	br     byteCursor
	bits   bitReader
	dcTab  [4]huffDecoder
	acTab  [4]huffDecoder
	spec   HuffSpec
	dcPred []int32
	scomps []scanComp
	dec    decoder
	inBuf  []byte // staging buffer for io.Reader inputs (DecodeInto)
}

// predBuf returns a zeroed []int32 of length n backed by the scratch.
func (s *DecoderScratch) predBuf(n int) []int32 {
	if cap(s.dcPred) < n {
		s.dcPred = make([]int32, n)
	}
	s.dcPred = s.dcPred[:n]
	clear(s.dcPred)
	return s.dcPred
}

// Decode parses a baseline or progressive JPEG stream into its quantized
// DCT coefficients. No dequantization or IDCT is performed; the result can
// be re-encoded losslessly with EncodeCoeffs.
func Decode(r io.Reader) (*CoeffImage, error) {
	return DecodeInto(r, nil, nil)
}

// DecodeBytes is Decode over an in-memory stream; the entropy decoder reads
// the slice directly with batched bit-reader refills instead of pulling
// bytes through an io interface. data is not retained or modified.
func DecodeBytes(data []byte) (*CoeffImage, error) {
	return DecodeBytesInto(data, nil, nil)
}

// DecodeInto is Decode reusing the coefficient storage of dst (the result of
// a previous decode, or nil) and the decoder state in s (Huffman LUTs, bit
// reader, scan buffers; nil allocates fresh state). The stream is buffered
// into the scratch and decoded via DecodeBytesInto; callers that already
// hold the bytes should call DecodeBytesInto directly and skip the copy.
func DecodeInto(r io.Reader, dst *CoeffImage, s *DecoderScratch) (*CoeffImage, error) {
	if s == nil {
		s = &DecoderScratch{}
	}
	buf := bytes.NewBuffer(s.inBuf[:0])
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("jpegx: reading input: %w", err)
	}
	s.inBuf = buf.Bytes()
	return DecodeBytesInto(s.inBuf, dst, s)
}

// DecodeBytesInto is DecodeBytes reusing dst's coefficient storage and the
// decoder state in s, like DecodeInto. A pooled caller decoding
// same-geometry photos through one scratch allocates almost nothing per
// image. The returned image is dst (allocated if nil); on error dst's
// contents are unspecified and must not be read, but dst and s may be
// reused for the next decode.
func DecodeBytesInto(data []byte, dst *CoeffImage, s *DecoderScratch) (*CoeffImage, error) {
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
	err := d.run()
	s.br.reset(nil) // drop the input reference so pooled scratch doesn't pin it
	if err != nil {
		return nil, err
	}
	return dst, nil
}

// resetForDecode clears dst for a fresh decode while keeping its component
// and marker storage for reuse.
func resetForDecode(im *CoeffImage) {
	comps := im.Components
	markers := im.Markers
	*im = CoeffImage{}
	if comps != nil {
		im.Components = comps[:0]
	}
	if markers != nil {
		im.Markers = markers[:0]
	}
}

// DecodeToPlanar decodes a JPEG stream all the way to full-resolution
// planar pixels (dequantize, IDCT, chroma upsample).
func DecodeToPlanar(r io.Reader) (*PlanarImage, error) {
	im, err := Decode(r)
	if err != nil {
		return nil, err
	}
	return im.ToPlanar(), nil
}

// DecodeConfig returns the dimensions, component count and progressive flag
// without decoding entropy data.
func DecodeConfig(r io.Reader) (width, height, comps int, progressive bool, err error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return 0, 0, 0, false, fmt.Errorf("jpegx: reading input: %w", err)
	}
	return DecodeConfigBytes(buf.Bytes())
}

// DecodeConfigBytes is DecodeConfig over an in-memory stream.
func DecodeConfigBytes(data []byte) (width, height, comps int, progressive bool, err error) {
	s := &DecoderScratch{}
	s.br.reset(data)
	d := &s.dec
	*d = decoder{r: &s.br, img: &CoeffImage{}, s: s}
	err = d.runUntilSOF()
	if err != nil {
		return 0, 0, 0, false, err
	}
	return d.img.Width, d.img.Height, len(d.img.Components), d.progressive, nil
}

func (d *decoder) run() error {
	if err := d.checkSOI(); err != nil {
		return err
	}
	for {
		m, err := d.nextMarker()
		if err != nil {
			return err
		}
		switch {
		case m == mEOI:
			if !d.sawSOF {
				return FormatError("EOI before SOF")
			}
			return nil
		case m == mSOF0 || m == mSOF1 || m == mSOF2:
			if err := d.parseSOF(m); err != nil {
				return err
			}
		case m == mDQT:
			if err := d.parseDQT(); err != nil {
				return err
			}
		case m == mDHT:
			if err := d.parseDHT(); err != nil {
				return err
			}
		case m == mDRI:
			if err := d.parseDRI(); err != nil {
				return err
			}
		case m == mSOS:
			if err := d.parseAndDecodeScan(); err != nil {
				return err
			}
		case isAPP(m) || m == mCOM:
			if err := d.parseAppOrCom(m); err != nil {
				return err
			}
		case isRST(m):
			return FormatError("unexpected RST marker between segments")
		case m == 0x01 || m == mSOI:
			return FormatError(fmt.Sprintf("unexpected marker 0x%02x", m))
		default:
			// Unknown segment with a length field: skip it.
			if err := d.skipSegment(); err != nil {
				return err
			}
		}
	}
}

func (d *decoder) runUntilSOF() error {
	if err := d.checkSOI(); err != nil {
		return err
	}
	for {
		m, err := d.nextMarker()
		if err != nil {
			return err
		}
		switch {
		case m == mSOF0 || m == mSOF1 || m == mSOF2:
			return d.parseSOF(m)
		case m == mEOI || m == mSOS:
			return FormatError("missing SOF")
		case isAPP(m) || m == mCOM:
			if err := d.parseAppOrCom(m); err != nil {
				return err
			}
		default:
			if err := d.skipSegment(); err != nil {
				return err
			}
		}
	}
}

func (d *decoder) checkSOI() error {
	b0, err := d.r.ReadByte()
	if err != nil {
		return fmt.Errorf("jpegx: reading SOI: %w", err)
	}
	b1, err := d.r.ReadByte()
	if err != nil {
		return fmt.Errorf("jpegx: reading SOI: %w", err)
	}
	if b0 != 0xFF || b1 != mSOI {
		return FormatError("missing SOI marker")
	}
	return nil
}

// nextMarker scans forward to the next marker byte.
func (d *decoder) nextMarker() (byte, error) {
	if d.pending != 0 {
		m := d.pending
		d.pending = 0
		return m, nil
	}
	c, err := d.r.ReadByte()
	if err != nil {
		return 0, fmt.Errorf("jpegx: scanning for marker: %w", err)
	}
	for {
		if c != 0xFF {
			return 0, FormatError(fmt.Sprintf("expected marker, found 0x%02x", c))
		}
		m, err := d.r.ReadByte()
		if err != nil {
			return 0, fmt.Errorf("jpegx: scanning for marker: %w", err)
		}
		if m == 0xFF { // fill byte
			c = m
			continue
		}
		if m == 0x00 {
			return 0, FormatError("stuffed byte outside entropy-coded segment")
		}
		return m, nil
	}
}

func (d *decoder) segmentLength() (int, error) {
	n, err := d.r.readUint16()
	if err != nil {
		return 0, fmt.Errorf("jpegx: reading segment length: %w", err)
	}
	if n < 2 {
		return 0, FormatError("segment length < 2")
	}
	return int(n) - 2, nil
}

func (d *decoder) skipSegment() error {
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		if _, err := d.r.ReadByte(); err != nil {
			return fmt.Errorf("jpegx: skipping segment: %w", err)
		}
	}
	return nil
}

func (d *decoder) parseAppOrCom(m byte) error {
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	data := make([]byte, n)
	if err := d.r.readFull(data); err != nil {
		return err
	}
	d.img.Markers = append(d.img.Markers, MarkerSegment{Marker: m, Data: data})
	return nil
}

func (d *decoder) parseDQT() error {
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	for n > 0 {
		pqTq, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		n--
		pq, tq := pqTq>>4, pqTq&0x0F
		if tq > 3 {
			return FormatError("quant table index > 3")
		}
		var t QuantTable
		switch pq {
		case 0:
			buf := make([]byte, 64)
			if err := d.r.readFull(buf); err != nil {
				return err
			}
			n -= 64
			for zz, v := range buf {
				t[zigzag[zz]] = uint16(v)
			}
		case 1:
			buf := make([]byte, 128)
			if err := d.r.readFull(buf); err != nil {
				return err
			}
			n -= 128
			for zz := 0; zz < 64; zz++ {
				t[zigzag[zz]] = uint16(buf[2*zz])<<8 | uint16(buf[2*zz+1])
			}
		default:
			return FormatError("bad quant table precision")
		}
		if err := t.validate(); err != nil {
			return err
		}
		d.img.Quant[tq] = &t
	}
	if n != 0 {
		return FormatError("DQT length mismatch")
	}
	return nil
}

func (d *decoder) parseDHT() error {
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	for n > 0 {
		tcTh, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		n--
		tc, th := tcTh>>4, tcTh&0x0F
		if tc > 1 || th > 3 {
			return FormatError("bad huffman table class/index")
		}
		spec := &d.s.spec
		if err := d.r.readFull(spec.Counts[:]); err != nil {
			return err
		}
		n -= 16
		ns := spec.numSymbols()
		if cap(spec.Symbols) >= ns {
			spec.Symbols = spec.Symbols[:ns]
		} else {
			spec.Symbols = make([]byte, ns)
		}
		if err := d.r.readFull(spec.Symbols); err != nil {
			return err
		}
		n -= ns
		// Build the table in place in the scratch slot. A decoder's table
		// pointers start nil every decode, so stale tables from a previous
		// image are never visible unless this stream redefines them.
		var h *huffDecoder
		if tc == 0 {
			h = &d.s.dcTab[th]
		} else {
			h = &d.s.acTab[th]
		}
		if err := h.init(spec); err != nil {
			return err
		}
		if tc == 0 {
			d.dcTab[th] = h
		} else {
			d.acTab[th] = h
		}
	}
	if n != 0 {
		return FormatError("DHT length mismatch")
	}
	return nil
}

func (d *decoder) parseDRI() error {
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	if n != 2 {
		return FormatError("DRI length != 4")
	}
	ri, err := d.r.readUint16()
	if err != nil {
		return err
	}
	d.restartIntvl = int(ri)
	d.img.RestartIntvl = int(ri)
	return nil
}

func (d *decoder) parseSOF(marker byte) error {
	if d.sawSOF {
		return FormatError("multiple SOF segments")
	}
	d.progressive = marker == mSOF2
	d.img.Progressive = d.progressive
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	if n < 6 {
		return FormatError("SOF too short")
	}
	prec, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	if prec != 8 {
		return FormatError("only 8-bit precision supported")
	}
	h16, err := d.r.readUint16()
	if err != nil {
		return err
	}
	w16, err := d.r.readUint16()
	if err != nil {
		return err
	}
	nc, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	if w16 == 0 || h16 == 0 {
		return FormatError("zero image dimension")
	}
	// Bound memory and decode time against hostile headers: 64 Mpixel
	// covers anything a camera or PSP produces (the paper's largest case is
	// 4000×4000) while capping what a corrupted SOF can demand.
	if int(w16)*int(h16) > 1<<26 {
		return FormatError(fmt.Sprintf("image %dx%d exceeds the 64 Mpixel limit", w16, h16))
	}
	if nc != 1 && nc != 3 {
		return FormatError(fmt.Sprintf("unsupported component count %d", nc))
	}
	if n != 6+3*int(nc) {
		return FormatError("SOF length mismatch")
	}
	d.img.Width, d.img.Height = int(w16), int(h16)
	if cap(d.img.Components) >= int(nc) {
		// Reuse the component headers (and through them the coefficient
		// arrays) of the previous decode; every field is rewritten below.
		d.img.Components = d.img.Components[:nc]
	} else {
		d.img.Components = make([]Component, nc)
	}
	for i := 0; i < int(nc); i++ {
		id, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		hv, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		tq, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		c := &d.img.Components[i]
		c.ID = id
		c.H, c.V = int(hv>>4), int(hv&0x0F)
		c.TqIndex = int(tq)
		if c.H < 1 || c.H > 2 || c.V < 1 || c.V > 2 {
			return FormatError(fmt.Sprintf("unsupported sampling factors %dx%d", c.H, c.V))
		}
		if c.TqIndex > 3 {
			return FormatError("quant table index > 3")
		}
	}
	mcusX, mcusY := d.img.mcuDims()
	for i := range d.img.Components {
		c := &d.img.Components[i]
		c.BlocksX = mcusX * c.H
		c.BlocksY = mcusY * c.V
		n := c.BlocksX * c.BlocksY
		if cap(c.Blocks) >= n {
			// Entropy decoding only writes nonzero coefficients, so reused
			// storage must be cleared back to the all-zero state.
			c.Blocks = c.Blocks[:n]
			clear(c.Blocks)
		} else {
			c.Blocks = make([]Block, n)
		}
	}
	d.sawSOF = true
	return nil
}

// scanComp describes one component's participation in the current scan.
type scanComp struct {
	ci    int // index into img.Components
	dcSel int
	acSel int
}

// compScanDims returns the non-interleaved scan dimensions in blocks for a
// component: ceil of the component's true pixel extent divided by 8.
func (d *decoder) compScanDims(c *Component) (int, int) {
	hMax, vMax := d.img.MaxSampling()
	cw := (d.img.Width*c.H + hMax - 1) / hMax
	ch := (d.img.Height*c.V + vMax - 1) / vMax
	return (cw + 7) / 8, (ch + 7) / 8
}

func (d *decoder) parseAndDecodeScan() error {
	if !d.sawSOF {
		return FormatError("SOS before SOF")
	}
	n, err := d.segmentLength()
	if err != nil {
		return err
	}
	ns, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	if ns < 1 || int(ns) > len(d.img.Components) {
		return FormatError("bad scan component count")
	}
	if n != 4+2*int(ns) {
		return FormatError("SOS length mismatch")
	}
	if cap(d.s.scomps) >= int(ns) {
		d.s.scomps = d.s.scomps[:ns]
	} else {
		d.s.scomps = make([]scanComp, ns)
	}
	scomps := d.s.scomps
	for i := 0; i < int(ns); i++ {
		cs, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		tdta, err := d.r.ReadByte()
		if err != nil {
			return err
		}
		ci := -1
		for j := range d.img.Components {
			if d.img.Components[j].ID == cs {
				ci = j
			}
		}
		if ci < 0 {
			return FormatError("scan references unknown component")
		}
		dcSel, acSel := int(tdta>>4), int(tdta&0x0F)
		if dcSel > 3 || acSel > 3 {
			return FormatError("huffman table selector > 3")
		}
		scomps[i] = scanComp{ci: ci, dcSel: dcSel, acSel: acSel}
	}
	ss, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	se, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	ahal, err := d.r.ReadByte()
	if err != nil {
		return err
	}
	ah, al := int(ahal>>4), int(ahal&0x0F)

	if !d.progressive {
		if ss != 0 || se != 63 || ah != 0 || al != 0 {
			return FormatError("bad spectral selection for baseline scan")
		}
		return d.decodeBaselineScan(scomps)
	}
	return d.decodeProgressiveScan(scomps, int(ss), int(se), ah, al)
}

func (d *decoder) decodeBaselineScan(scomps []scanComp) error {
	br := &d.s.bits
	br.attach(d.r)
	dcPred := d.s.predBuf(len(d.img.Components))
	d.scans++

	// Table selectors are per-scan; validate once instead of per block.
	var dcs, acs [4]*huffDecoder
	for i, sc := range scomps {
		dcs[i], acs[i] = d.dcTab[sc.dcSel], d.acTab[sc.acSel]
		if dcs[i] == nil || acs[i] == nil {
			return FormatError("scan references undefined huffman table")
		}
	}

	// A split capture rides along only on the canonical single-scan shape
	// (see eligibleScan); anything else abandons the capture and decodes
	// plainly — the caller falls back to the reference split pipeline.
	tee := d.tee
	if tee != nil && !tee.eligibleScan(d, scomps) {
		tee.bad = true
		tee = nil
	}

	visit := func(si int, b *Block) error {
		ci := scomps[si].ci
		return decodeBaselineBlock(br, dcs[si], acs[si], b, &dcPred[ci], tee, min(si, 1), ci)
	}
	return d.forEachScanUnit(scomps, br, visit, func() { clear(dcPred) })
}

// decodeBaselineBlock decodes one baseline block: a DC category plus
// difference, then run-length-coded AC coefficients. This is the decoder's
// innermost loop, so the Huffman LUT probe and the EXTEND of the value bits
// are inlined against the bit reader's accumulator: one refill check covers a
// symbol (≤ 8 bits on the fast path) and its value field (≤ 15 bits), and the
// rare >8-bit codes fall back to the canonical walk. The accumulator and bit
// count live in locals (registers) for the whole block, synced back to the
// reader only around refills and the slow path.
//
// With a non-nil split capture c the block also feeds both parts' token
// streams (see DecodeBytesSplit); slot is the parts' entropy-table slot for
// the component (0 luma, 1 chroma) and ci its component index. Only the
// common token, an unclipped public coefficient with no ZRL before it, is
// recorded inline; the rest goes through the capture's methods. c is a
// concrete pointer, not an interface or a type parameter, so a nil capture
// costs the plain decode no indirect call, but not nothing: a nil check at
// the start and end of every block, on every ZRL and on every non-zero, the
// register that holds c (the loop spills and reloads a little more) and
// three more arguments per block. DESIGN.md ("LUT Huffman decoding") gives
// the measured cost.
func decodeBaselineBlock(br *bitReader, dc, ac *huffDecoder, b *Block, pred *int32, c *SplitCapture, slot, ci int) error {
	acc, n := br.acc, br.n
	if n < 24 {
		br.acc, br.n = acc, n
		br.fill()
		acc, n = br.acc, br.n
	}
	var sym byte
	if e := dc.lut[uint8(acc>>(n-8))]; e != 0 {
		n -= uint(e & 0xFF)
		sym = byte(e >> 8)
	} else {
		br.acc, br.n = acc, n
		var err error
		if sym, err = dc.decodeSlow(br); err != nil {
			return err
		}
		acc, n = br.acc, br.n
	}
	if sym > 15 {
		return FormatError("DC magnitude category > 15")
	}
	if s := uint(sym); s != 0 {
		if n < s {
			br.acc, br.n = acc, n
			br.fill()
			acc, n = br.acc, br.n
		}
		n -= s
		v := int32(acc>>n) & (1<<s - 1)
		if v < 1<<(s-1) {
			v += -1<<s + 1 // EXTEND (T.81 F.2.2.1)
		}
		*pred += v
	}
	b[0] = *pred
	if c != nil {
		if err := c.startBlock(*pred, slot, ci); err != nil {
			return err
		}
	}

	k := 1
	for k < 64 {
		if n < 24 {
			br.acc, br.n = acc, n
			br.fill()
			acc, n = br.acc, br.n
		}
		if e := ac.lut[uint8(acc>>(n-8))]; e != 0 {
			n -= uint(e & 0xFF)
			sym = byte(e >> 8)
		} else {
			br.acc, br.n = acc, n
			var err error
			if sym, err = ac.decodeSlow(br); err != nil {
				return err
			}
			acc, n = br.acc, br.n
		}
		s := uint(sym & 0x0F)
		if s == 0 {
			if sym != 0xF0 {
				break // EOB
			}
			k += 16 // ZRL
			if c != nil {
				c.zrl++
			}
			continue
		}
		k += int(sym >> 4)
		if k > 63 {
			br.acc, br.n = acc, n
			return FormatError("AC coefficient index out of range")
		}
		if n < s {
			br.acc, br.n = acc, n
			br.fill()
			acc, n = br.acc, br.n
		}
		n -= s
		raw := uint32(acc>>n) & (1<<s - 1)
		v := int32(raw)
		if v < 1<<(s-1) {
			v += -1<<s + 1
		}
		b[zigzag[k]&63] = v
		if c != nil {
			// Unclipped and with no ZRL before it, the public coefficient's
			// token is the source's: same symbol, and the raw value bits are
			// the public value bits (JPEG's one's-complement encoding).
			if t := c.threshold; uint32(v+t) <= uint32(2*t) && c.zrl == 0 {
				c.pubAC[sym]++
				c.pub.tokens = append(c.pub.tokens, token(c.slot, tokKindAC, sym, raw, s))
			} else if err := c.coefficient(k, sym, v); err != nil {
				br.acc, br.n = acc, n
				return err
			}
		}
		k++
	}
	br.acc, br.n = acc, n
	if c != nil {
		c.endBlock(k)
	}
	return nil
}

// scanRestarts tracks restart-interval bookkeeping within one scan.
type scanRestarts struct {
	d      *decoder
	br     *bitReader
	ri     int
	units  int
	expect byte
}

func (d *decoder) newScanRestarts(br *bitReader) scanRestarts {
	return scanRestarts{d: d, br: br, ri: d.restartIntvl, expect: mRST0}
}

// check runs after every scan unit except the last: it guards against
// data-exhausted streams and, at each restart interval, consumes the RST
// marker, resets the bit reader and reports restarted=true so the caller can
// clear its predictors.
func (sr *scanRestarts) check() (restarted bool, err error) {
	if sr.br.exhausted() {
		return false, FormatError("entropy-coded data exhausted before the scan completed")
	}
	sr.units++
	if sr.ri == 0 || sr.units < sr.ri {
		return false, nil
	}
	sr.units = 0
	// The entropy decoder should have stopped at the RST marker.
	m := sr.br.pendingMarker()
	if m == 0 {
		// Marker not yet reached (byte-aligned padding consumed exactly);
		// read it from the stream.
		c, err := sr.d.r.ReadByte()
		if err != nil {
			return false, fmt.Errorf("jpegx: reading restart marker: %w", err)
		}
		if c != 0xFF {
			return false, FormatError("expected restart marker")
		}
		m, err = sr.d.r.ReadByte()
		if err != nil {
			return false, fmt.Errorf("jpegx: reading restart marker: %w", err)
		}
	}
	if !isRST(m) {
		return false, FormatError(fmt.Sprintf("expected RST marker, got 0x%02x", m))
	}
	if m != sr.expect {
		return false, FormatError("restart marker out of sequence")
	}
	sr.expect = mRST0 + (sr.expect-mRST0+1)%8
	sr.br.reset()
	sr.d.eobRun = 0
	return true, nil
}

// finishScan hands the entropy decoder's pending marker back to the segment
// loop, swallowing a stray trailing restart.
func (d *decoder) finishScan(br *bitReader) {
	d.pending = br.pendingMarker()
	if isRST(d.pending) {
		d.pending = 0
	}
}

// forEachScanUnit walks the scan's block order (interleaved MCU order for
// multi-component scans, component raster order otherwise), handling restart
// markers: after every restart interval it consumes an RST marker, resets
// the bit reader and calls onRestart. visit gets the block and its
// component's index si within the scan, so it can pick the scan's
// per-component tables. Baseline and progressive scans share this walk.
func (d *decoder) forEachScanUnit(scomps []scanComp, br *bitReader, visit func(si int, b *Block) error, onRestart func()) error {
	sr := d.newScanRestarts(br)
	checkRestart := func() error {
		restarted, err := sr.check()
		if restarted {
			onRestart()
		}
		return err
	}

	if len(scomps) > 1 {
		mcusX, mcusY := d.img.mcuDims()
		for my := 0; my < mcusY; my++ {
			for mx := 0; mx < mcusX; mx++ {
				for si, sc := range scomps {
					c := &d.img.Components[sc.ci]
					for v := 0; v < c.V; v++ {
						for h := 0; h < c.H; h++ {
							if err := visit(si, c.Block(mx*c.H+h, my*c.V+v)); err != nil {
								return err
							}
						}
					}
				}
				if my == mcusY-1 && mx == mcusX-1 {
					break // no restart after the final MCU
				}
				if err := checkRestart(); err != nil {
					return err
				}
			}
		}
	} else {
		sc := scomps[0]
		c := &d.img.Components[sc.ci]
		bw, bh := d.compScanDims(c)
		for by := 0; by < bh; by++ {
			for bx := 0; bx < bw; bx++ {
				if err := visit(0, c.Block(bx, by)); err != nil {
					return err
				}
				if by == bh-1 && bx == bw-1 {
					break
				}
				if err := checkRestart(); err != nil {
					return err
				}
			}
		}
	}
	d.finishScan(br)
	return nil
}

func (d *decoder) decodeProgressiveScan(scomps []scanComp, ss, se, ah, al int) error {
	d.scans++
	if d.tee != nil {
		d.tee.bad = true // progressive streams take the reference split path
	}
	if ss == 0 {
		if se != 0 {
			return FormatError("progressive DC scan with Se != 0")
		}
	} else {
		if len(scomps) != 1 {
			return FormatError("progressive AC scan with multiple components")
		}
		if se < ss || se > 63 {
			return FormatError("bad spectral band")
		}
	}
	if al > 13 || (ah != 0 && ah != al+1) {
		return FormatError("bad successive approximation parameters")
	}
	br := &d.s.bits
	br.attach(d.r)
	d.eobRun = 0
	dcPred := d.s.predBuf(len(d.img.Components))

	visit := func(si int, b *Block) error {
		sc := scomps[si]
		switch {
		case ss == 0 && ah == 0: // DC first
			dc := d.dcTab[sc.dcSel]
			if dc == nil {
				return FormatError("scan references undefined DC table")
			}
			t, err := dc.decode(br)
			if err != nil {
				return err
			}
			if t > 16 {
				return FormatError("DC magnitude category > 16")
			}
			dcPred[sc.ci] += br.receiveExtend(uint(t))
			b[0] = dcPred[sc.ci] << uint(al)
		case ss == 0: // DC refinement
			if br.readBit() != 0 {
				b[0] |= 1 << uint(al)
			}
		case ah == 0: // AC first
			return d.decodeACFirst(br, b, sc, ss, se, al)
		default: // AC refinement
			return d.decodeACRefine(br, b, sc, ss, se, al)
		}
		return nil
	}
	return d.forEachScanUnit(scomps, br, visit, func() { clear(dcPred) })
}

func (d *decoder) decodeACFirst(br *bitReader, b *Block, sc scanComp, ss, se, al int) error {
	if d.eobRun > 0 {
		d.eobRun--
		return nil
	}
	ac := d.acTab[sc.acSel]
	if ac == nil {
		return FormatError("scan references undefined AC table")
	}
	for k := ss; k <= se; {
		sym, err := ac.decode(br)
		if err != nil {
			return err
		}
		r, s := int(sym>>4), uint(sym&0x0F)
		if s == 0 {
			if r != 15 {
				d.eobRun = 1 << uint(r)
				if r != 0 {
					d.eobRun |= br.readBits(uint(r))
				}
				d.eobRun--
				break
			}
			k += 16
			continue
		}
		k += r
		if k > se {
			return FormatError("AC index beyond spectral band")
		}
		b[zigzag[k]] = br.receiveExtend(s) << uint(al)
		k++
	}
	return nil
}

func (d *decoder) decodeACRefine(br *bitReader, b *Block, sc scanComp, ss, se, al int) error {
	delta := int32(1) << uint(al)
	zig := ss
	if d.eobRun == 0 {
		ac := d.acTab[sc.acSel]
		if ac == nil {
			return FormatError("scan references undefined AC table")
		}
	loop:
		for ; zig <= se; zig++ {
			var newVal int32
			sym, err := ac.decode(br)
			if err != nil {
				return err
			}
			r, s := int(sym>>4), sym&0x0F
			switch s {
			case 0:
				if r != 15 {
					d.eobRun = 1 << uint(r)
					if r != 0 {
						d.eobRun |= br.readBits(uint(r))
					}
					break loop
				}
				// ZRL: skip 16 zero-history coefficients (r == 15, s == 0).
			case 1:
				if br.readBit() != 0 {
					newVal = delta
				} else {
					newVal = -delta
				}
			default:
				return FormatError("bad AC refinement symbol")
			}
			zig, err = d.refineNonZeroes(br, b, zig, se, r, delta)
			if err != nil {
				return err
			}
			if newVal != 0 {
				if zig > se {
					return FormatError("refinement ran past spectral band")
				}
				b[zigzag[zig]] = newVal
			}
		}
	}
	if d.eobRun > 0 {
		var err error
		_, err = d.refineNonZeroes(br, b, zig, se, -1, delta)
		if err != nil {
			return err
		}
		d.eobRun--
	}
	return nil
}

// refineNonZeroes emits correction bits for already-nonzero coefficients in
// zigzag positions [zig, se]. If nz >= 0 it stops after skipping nz
// zero-history coefficients (returning the position of the nz'th zero).
func (d *decoder) refineNonZeroes(br *bitReader, b *Block, zig, se, nz int, delta int32) (int, error) {
	for ; zig <= se; zig++ {
		u := zigzag[zig]
		if b[u] == 0 {
			if nz == 0 {
				break
			}
			nz--
			continue
		}
		if br.readBit() == 0 {
			continue
		}
		if b[u] >= 0 {
			if b[u]&delta == 0 {
				b[u] += delta
			}
		} else {
			if b[u]&delta == 0 {
				b[u] -= delta
			}
		}
	}
	return zig, nil
}

// ToPlanar converts the coefficient image to full-resolution planar pixels:
// dequantize, inverse DCT, level shift, and chroma upsample (triangle filter
// for 2× factors, matching libjpeg's "fancy" upsampling).
func (im *CoeffImage) ToPlanar() *PlanarImage {
	return im.ToPlanarInto(nil, nil, nil)
}

// PlanarScratch holds ToPlanarInto's temporaries: a subsampled component's
// samples before the upsample, and the upsample's horizontal pass. The zero
// value is ready to use.
type PlanarScratch struct {
	native, hor []float64
}

// ToPlanarInto is ToPlanar writing into dst's planes, reused when large
// enough (dst nil allocates a new image), with the chroma temporaries taken
// from s (nil allocates them) and the per-block IDCT fanned out over bands
// of block rows on pool (nil runs sequentially). Each band writes a disjoint
// row range, so the samples are ToPlanar's whatever the pool and whatever
// dst and s held before.
func (im *CoeffImage) ToPlanarInto(dst *PlanarImage, s *PlanarScratch, pool *work.Pool) *PlanarImage {
	if dst == nil {
		dst = new(PlanarImage)
	}
	if s == nil {
		s = new(PlanarScratch)
	}
	dst.Width, dst.Height = im.Width, im.Height
	dst.Planes = slices.Grow(dst.Planes[:0], len(im.Components))[:len(im.Components)]
	for ci := range im.Components {
		dst.Planes[ci] = im.componentPlane(ci, dst.Planes[ci], s, pool)
	}
	return dst
}

// ToLumaInto is ToPlanarInto for component 0 alone (luma, or the only
// component of a grayscale image): dst becomes a one-plane image whose plane
// holds the samples of ToPlanar's first plane, bit for bit. The chroma
// components are neither transformed nor upsampled. dst and s are reused as
// in ToPlanarInto (nil allocates); the IDCT runs sequentially.
func (im *CoeffImage) ToLumaInto(dst *PlanarImage, s *PlanarScratch) *PlanarImage {
	if dst == nil {
		dst = new(PlanarImage)
	}
	if s == nil {
		s = new(PlanarScratch)
	}
	dst.Width, dst.Height = im.Width, im.Height
	dst.Planes = slices.Grow(dst.Planes[:0], 1)[:1]
	dst.Planes[0] = im.componentPlane(0, dst.Planes[0], s, nil)
	return dst
}

// componentPlane writes component ci as a full-resolution plane into out's
// storage (grown when too small) and returns it: dequantize and IDCT, banded
// on pool, then a chroma upsample when the component is subsampled, its
// native-resolution samples held in s.
func (im *CoeffImage) componentPlane(ci int, out []float64, s *PlanarScratch, pool *work.Pool) []float64 {
	c := &im.Components[ci]
	w, h := im.ComponentSize(ci)
	out = slices.Grow(out[:0], im.Width*im.Height)[:im.Width*im.Height]
	// A full-size component (luma, or 4:4:4 chroma) is transformed into
	// its plane; only a subsampled one goes through the temporary.
	pix, sub := out, w != im.Width || h != im.Height
	if sub {
		s.native = slices.Grow(s.native[:0], w*h)[:w*h]
		pix = s.native
	}
	// validate() prevents a missing table for encoder-produced images;
	// decoded images always carry theirs. Produce zeros rather than
	// panicking.
	if q := im.Quant[c.TqIndex]; q == nil {
		clear(pix)
	} else {
		bh := (h + 7) / 8
		bands := min(pool.Size(), bh)
		if bands <= 1 {
			idctRows(pix, w, h, c, q, 0, bh)
		} else {
			// Band errors are impossible; ignore Do's error.
			_ = pool.Do(bands, func(i int) error {
				idctRows(pix, w, h, c, q, bh*i/bands, bh*(i+1)/bands)
				return nil
			})
		}
	}
	if sub {
		s.hor = upsamplePlane(pix, w, h, out, im.Width, im.Height, s.hor)
	}
	return out
}

// idctRows dequantizes and inverse-transforms block rows [by0, by1) of c,
// written as level-shifted samples to the matching rows of the w×h plane
// pix, not clamped. Each block row owns sample rows [8·by, min(8·by+8, h)),
// so concurrent bands never overlap.
func idctRows(pix []float64, w, h int, c *Component, q *QuantTable, by0, by1 int) {
	var coeffs, pixels [64]int32
	bw := (w + 7) / 8
	for by := by0; by < by1; by++ {
		for bx := 0; bx < bw; bx++ {
			dequantizeBlockInt(c.Block(bx, by), q, &coeffs)
			IDCT8x8Int(&coeffs, &pixels)
			// The last block row and column may hang over the plane's edge.
			rows, cols := min(8, h-by*8), min(8, w-bx*8)
			for y := 0; y < rows; y++ {
				dst := pix[(by*8+y)*w+bx*8:][:cols]
				for x, v := range pixels[y*8:][:cols] {
					dst[x] = float64(v)*0.125 + 128
				}
			}
		}
	}
}

// UpsampleTap is upsamplePlane along one axis as data: output sample x of n
// is 3/4 of source sample near plus 1/4 of source sample far, out of cn.
// Where the axis is copied (cn = n), replicated (2·cn < n) or clamped at an
// end of the triangle filter, far == near and the sample passes through whole.
func UpsampleTap(x, cn, n int) (near, far int) {
	switch {
	case cn == n:
		return x, x
	case 2*cn >= n:
		near = min(x/2, cn-1)
		return near, max(0, min(near+2*(x%2)-1, cn-1))
	default:
		return x * cn / n, x * cn / n
	}
}

// upsamplePlane resizes a subsampled chroma plane (cw×ch) to (w×h) using a
// triangle filter for integer 2× factors and nearest otherwise. buf holds the
// horizontal pass, reallocated only when too small, and is returned for the
// next call.
func upsamplePlane(src []float64, cw, ch int, dst []float64, w, h int, buf []float64) []float64 {
	// Horizontal pass.
	hor := src
	if cw != w {
		buf = slices.Grow(buf[:0], w*ch)[:w*ch]
		hor = buf
		for y := 0; y < ch; y++ {
			row, orow := src[y*cw:][:cw], hor[y*w:][:w]
			if 2*cw >= w {
				upsampleRow(row, orow)
				continue
			}
			for x := range orow {
				orow[x] = row[x*cw/w]
			}
		}
	}
	// Vertical pass.
	if ch == h {
		copy(dst, hor)
		return buf
	}
	if 2*ch >= h {
		for y := 0; y < h; y++ {
			sy := y / 2
			if sy >= ch {
				sy = ch - 1
			}
			var other int
			if y%2 == 0 {
				other = sy - 1
			} else {
				other = sy + 1
			}
			if other < 0 {
				other = 0
			}
			if other >= ch {
				other = ch - 1
			}
			drow := dst[y*w : y*w+w]
			near, far := hor[sy*w:][:len(drow)], hor[other*w:][:len(drow)]
			for x := range drow {
				drow[x] = 0.75*near[x] + 0.25*far[x]
			}
		}
		return buf
	}
	for y := 0; y < h; y++ {
		sy := y * ch / h
		copy(dst[y*w:y*w+w], hor[sy*w:sy*w+w])
	}
	return buf
}

// upsampleRow doubles one row with the triangle filter: each output is 3/4
// its nearest source sample plus 1/4 the next-nearest (the left neighbour
// for even outputs, the right one for odd), neighbours clamped to the row.
// Outputs 2i+1 and 2i+2 sit between sources i and i+1 and are computed as a
// pair; only the first output and the one or none left past the last pair
// clamp.
func upsampleRow(row, orow []float64) {
	cw, w := len(row), len(orow)
	orow[0] = 0.75*row[0] + 0.25*row[0]
	pairs := min(cw-1, (w-1)/2)
	left := row[0]
	for i, right := range row[1 : 1+pairs] {
		o := orow[2*i+1 : 2*i+3]
		o[0] = 0.75*left + 0.25*right
		o[1] = 0.75*right + 0.25*left
		left = right
	}
	for x := 2*pairs + 1; x < w; x++ {
		sx := min(x/2, cw-1)
		other := sx + 1
		if x%2 == 0 {
			other = sx - 1
		}
		other = max(0, min(other, cw-1))
		orow[x] = 0.75*row[sx] + 0.25*row[other]
	}
}
