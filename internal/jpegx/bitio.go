package jpegx

import (
	"io"
	"math/bits"
)

// Entropy-coded-segment bit I/O. JPEG writes bits MSB-first and byte-stuffs:
// every 0xFF data byte is followed by a 0x00 so that it cannot be mistaken
// for a marker. The reader treats an unstuffed 0xFF as the start of a marker
// (restart markers are consumed by the decoder between MCU runs).
//
// The whole stream is in memory (see DecodeBytes), so the reader is a slice
// cursor refilling a 64-bit accumulator in batches instead of pulling single
// bytes through an io interface; after a refill at least 57 bits are
// buffered, so any Huffman code (≤ 16 bits) plus its value bits decode
// without touching the slice again.

// byteCursor is a position-tracked view over a complete in-memory JPEG
// stream. Header parsing and entropy decoding share one cursor, so the bit
// reader's batched refills and the marker scanner stay in step.
type byteCursor struct {
	data []byte
	pos  int
}

// reset points the cursor at a new stream; reset(nil) drops the reference so
// a pooled decoder does not pin the previous input.
func (b *byteCursor) reset(data []byte) {
	b.data, b.pos = data, 0
}

func (b *byteCursor) ReadByte() (byte, error) {
	if b.pos >= len(b.data) {
		return 0, io.EOF
	}
	c := b.data[b.pos]
	b.pos++
	return c, nil
}

func (b *byteCursor) readUint16() (uint16, error) {
	if b.pos+2 > len(b.data) {
		b.pos = len(b.data)
		return 0, io.EOF
	}
	v := uint16(b.data[b.pos])<<8 | uint16(b.data[b.pos+1])
	b.pos += 2
	return v, nil
}

func (b *byteCursor) readFull(p []byte) error {
	n := copy(p, b.data[b.pos:])
	b.pos += n
	if n < len(p) {
		return io.ErrUnexpectedEOF
	}
	return nil
}

// bitReader reads MSB-first bits from an entropy-coded segment.
type bitReader struct {
	src    *byteCursor
	acc    uint64 // bit accumulator, MSB-aligned in the low `n` bits
	n      uint   // number of valid bits in acc
	marker byte   // pending marker encountered mid-stream (0 if none)

	// synthBits counts pad bits synthesized after a marker or EOF was
	// reached (T.81 F.2.2.5). Legitimate decodes need at most a few bytes
	// of padding; a large count means the scan ran out of data and the
	// decoder is hallucinating blocks from 1-bits — a corrupted or
	// truncated stream that must be abandoned rather than slowly "decoded".
	synthBits int
}

// reset discards buffered bits; called at restart markers and scan starts.
// The source cursor's position is untouched: once a marker is pending the
// reader never consumes past it, so nothing buffered belongs to the stream
// beyond the marker.
func (br *bitReader) reset() {
	br.acc, br.n = 0, 0
	br.marker = 0
	br.synthBits = 0
}

// attach points the reader at src and discards all buffered state; the
// pooled decoder reuses one bitReader across scans and images.
func (br *bitReader) attach(src *byteCursor) {
	br.src = src
	br.reset()
}

// exhausted reports that the reader has been fabricating data well beyond
// any legitimate byte-alignment padding.
func (br *bitReader) exhausted() bool { return br.synthBits > 512 }

// fill tops the accumulator up to at least 57 valid bits, handling byte
// stuffing. It cannot fail: at EOF or a marker the accumulator is padded
// with synthetic 1-bits (T.81 F.2.2.5) and the exhausted() guard catches
// streams that decode far into the padding.
func (br *bitReader) fill() {
	if br.marker == 0 {
		// Fast path: plain data bytes, one bounds check and one 0xFF
		// compare per byte.
		d := br.src
		data, pos := d.data, d.pos
		for br.n <= 56 && pos < len(data) {
			c := data[pos]
			if c == 0xFF {
				break
			}
			pos++
			br.acc = br.acc<<8 | uint64(c)
			br.n += 8
		}
		d.pos = pos
	}
	for br.n <= 56 {
		if br.marker != 0 {
			br.acc = br.acc<<8 | 0xFF
			br.n += 8
			br.synthBits += 8
			continue
		}
		d := br.src
		if d.pos >= len(d.data) {
			br.marker = 0xD9 // treat EOF as EOI for padding purposes
			continue
		}
		c := d.data[d.pos]
		d.pos++
		if c != 0xFF {
			br.acc = br.acc<<8 | uint64(c)
			br.n += 8
			continue
		}
		// 0xFF: a stuffed data byte, fill byte(s), or a marker.
		var c2 byte
		if d.pos >= len(d.data) {
			br.marker = 0xD9
			continue
		}
		c2 = d.data[d.pos]
		d.pos++
		if c2 == 0xFF {
			// Fill bytes before a marker; keep scanning.
			for c2 == 0xFF {
				if d.pos >= len(d.data) {
					br.marker = 0xD9
					c2 = 0
					break
				}
				c2 = d.data[d.pos]
				d.pos++
			}
		}
		if c2 != 0x00 {
			br.marker = c2
			continue
		}
		br.acc = br.acc<<8 | 0xFF
		br.n += 8
	}
}

// readBit returns the next bit (0 or 1).
func (br *bitReader) readBit() int {
	if br.n == 0 {
		br.fill()
	}
	br.n--
	return int(br.acc>>br.n) & 1
}

// readBits returns the next n bits as an unsigned value, MSB first.
// n must be ≤ 16 (a fill guarantees ≥ 57 buffered bits); callers validate
// symbol-derived widths before requesting the bits.
func (br *bitReader) readBits(n uint) int32 {
	if n == 0 {
		return 0
	}
	if br.n < n {
		br.fill()
	}
	br.n -= n
	return int32(br.acc>>br.n) & (1<<n - 1)
}

// receiveExtend reads an s-bit magnitude and applies the EXTEND procedure of
// T.81 F.2.2.1 (s ≤ 16), fused so the hot block loop pays one fill check.
func (br *bitReader) receiveExtend(s uint) int32 {
	if s == 0 {
		return 0
	}
	if br.n < s {
		br.fill()
	}
	br.n -= s
	v := int32(br.acc>>br.n) & (1<<s - 1)
	if v < 1<<(s-1) {
		v += -1<<s + 1
	}
	return v
}

// pendingMarker reports a marker byte hit during entropy decoding (0 if
// none). The decoder checks this at restart boundaries.
func (br *bitReader) pendingMarker() byte { return br.marker }

// extend implements the EXTEND procedure of T.81 F.2.2.1: map the n-bit
// magnitude v to its signed value.
func extend(v int32, n uint) int32 {
	if n == 0 {
		return 0
	}
	if v < 1<<(n-1) {
		return v - (1 << n) + 1
	}
	return v
}

// bitWriter writes MSB-first bits with 0xFF byte stuffing, draining a 64-bit
// accumulator into an append buffer that is flushed to w in 4 KiB chunks.
type bitWriter struct {
	w   io.Writer
	acc uint64
	n   uint
	buf []byte
	err error
}

func newBitWriter(w io.Writer) *bitWriter {
	return &bitWriter{w: w, buf: make([]byte, 0, 4096)}
}

// reset re-aims the writer at w, keeping the chunk buffer; the progressive
// encoder reuses one writer across its ten scans.
func (bw *bitWriter) reset(w io.Writer) {
	bw.w = w
	bw.acc, bw.n = 0, 0
	bw.err = nil
	if bw.buf == nil {
		bw.buf = make([]byte, 0, 4096)
	} else {
		bw.buf = bw.buf[:0]
	}
}

// writeBits emits the low n bits of v, MSB first. n ≤ 32, so a fused
// Huffman-code-plus-value emission (≤ 16 + 16 bits) is a single call. Bits
// accumulate until 32 are pending, then drain four bytes at once: a SWAR
// test finds the (rare) 0xFF bytes needing stuffing, so the common case is
// a single 4-byte append per drain instead of per-byte stuffing checks.
func (bw *bitWriter) writeBits(v uint32, n uint) {
	if bw.err != nil {
		return
	}
	bw.acc = bw.acc<<n | uint64(v)&(1<<n-1)
	bw.n += n
	if bw.n < 32 {
		return
	}
	bw.n -= 32
	w := uint32(bw.acc >> bw.n)
	// Any byte equal to 0xFF? Equivalently: any zero byte in ^w.
	if x := ^w; (x-0x01010101)&^x&0x80808080 == 0 {
		bw.buf = append(bw.buf, byte(w>>24), byte(w>>16), byte(w>>8), byte(w))
	} else {
		for shift := 24; shift >= 0; shift -= 8 {
			b := byte(w >> shift)
			bw.buf = append(bw.buf, b)
			if b == 0xFF {
				bw.buf = append(bw.buf, 0x00)
			}
		}
	}
	if len(bw.buf) >= 4096 {
		bw.flushBuf()
	}
}

func (bw *bitWriter) flushBuf() {
	if bw.err != nil || len(bw.buf) == 0 {
		return
	}
	_, bw.err = bw.w.Write(bw.buf)
	bw.buf = bw.buf[:0]
}

// pad flushes any partial byte, padding with 1-bits as required before a
// marker, and drains the internal buffer.
func (bw *bitWriter) pad() error {
	if pad := (8 - bw.n%8) % 8; pad > 0 {
		bw.writeBits(1<<pad-1, uint(pad))
	}
	// Drain the accumulated whole bytes (writeBits keeps up to 31 bits).
	for bw.n >= 8 {
		bw.n -= 8
		b := byte(bw.acc >> bw.n)
		bw.buf = append(bw.buf, b)
		if b == 0xFF {
			bw.buf = append(bw.buf, 0x00)
		}
	}
	bw.flushBuf()
	return bw.err
}

// magnitude returns the JPEG "size" category of v: the number of bits needed
// to represent |v|, and the value bits to emit after the Huffman symbol.
func magnitude(v int32) (nbits uint, val uint32) {
	if v == 0 {
		return 0, 0
	}
	u := uint32(v)
	if v < 0 {
		u = uint32(-v)
	}
	nbits = uint(bits.Len32(u))
	if v < 0 {
		// One's complement representation of negative values.
		return nbits, uint32(v) + (1<<nbits - 1)
	}
	return nbits, uint32(v)
}
