// Package video implements the paper's §4.2 extension sketch: applying P3
// to video by protecting intra-coded frames. The substrate is a
// Motion-JPEG-style stream — every frame an independently coded JPEG, the
// "tools similar to those used in JPEG" the paper points at — so the P3
// split applies frame by frame: the public stream stays a valid MJPEG that
// a provider can transcode or thumbnail, while one sealed container carries
// all frames' secret parts. (Quality reductions in an I-frame would
// propagate through a predicted GOP, which is exactly why protecting
// I-frames suffices; motion-compensated P/B frames are future work here as
// in the paper.)
//
// Frames are mutually independent, so SplitStream and JoinStream fan the
// per-frame work out on a work.Pool (one frame per task, decoder and
// encoder scratch recycled through a per-call pool), and a 100-frame clip
// costs roughly frame-parallel wall time instead of 100 sequential splits.
// Outputs are byte-identical at every parallelism level.
package video

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"p3/internal/core"
	"p3/internal/work"
)

const streamMagic = "P3MJ"

// Container format limits. The parser additionally caps every header field
// against the bytes actually present, so a corrupt header can never force
// an allocation larger than the input itself.
const (
	// MaxFrames bounds the frame count a container may declare.
	MaxFrames = 1 << 20
	// MaxFrameLen bounds a single frame's byte length.
	MaxFrameLen = 64 << 20
	// frameHeaderLen is the per-frame length prefix.
	frameHeaderLen = 4
)

// FormatError reports a malformed P3 MJPEG container: bad magic, a frame
// count or frame length exceeding the input that carries it, truncation, or
// trailing garbage. It marks the *input* as bad (a 400, not a 502, at
// serving boundaries).
type FormatError struct {
	// Frame is the frame index at which the problem was detected, or -1
	// for errors in the stream header.
	Frame int
	// Reason describes the problem.
	Reason string
}

// Error implements the error interface.
func (e *FormatError) Error() string {
	if e.Frame < 0 {
		return "video: bad stream: " + e.Reason
	}
	return fmt.Sprintf("video: bad stream: frame %d: %s", e.Frame, e.Reason)
}

// FrameRangeError reports a frame index outside a stream's frame count.
type FrameRangeError struct {
	Frame  int // the requested index
	Frames int // how many frames the stream holds
}

// Error implements the error interface.
func (e *FrameRangeError) Error() string {
	return fmt.Sprintf("video: frame %d out of range [0,%d)", e.Frame, e.Frames)
}

// Stream is a Motion-JPEG sequence.
type Stream struct {
	// Frames are independently coded JPEG images. After parseStream they
	// alias the parsed buffer and must be treated as read-only.
	Frames [][]byte
}

// Write serializes the stream: magic, frame count, then length-prefixed
// frames.
func (s *Stream) Write(w io.Writer) error {
	if len(s.Frames) == 0 {
		return &FormatError{Frame: -1, Reason: "empty stream"}
	}
	if len(s.Frames) > MaxFrames {
		return &FormatError{Frame: -1, Reason: fmt.Sprintf("frame count %d over limit %d", len(s.Frames), MaxFrames)}
	}
	if _, err := io.WriteString(w, streamMagic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.BigEndian, uint32(len(s.Frames))); err != nil {
		return err
	}
	for i, f := range s.Frames {
		if len(f) == 0 {
			return &FormatError{Frame: i, Reason: "empty frame"}
		}
		if len(f) > MaxFrameLen {
			return &FormatError{Frame: i, Reason: fmt.Sprintf("frame length %d over limit %d", len(f), MaxFrameLen)}
		}
		if err := binary.Write(w, binary.BigEndian, uint32(len(f))); err != nil {
			return err
		}
		if _, err := w.Write(f); err != nil {
			return err
		}
	}
	return nil
}

// parseStream parses a serialized stream from data. Frames subslice data
// (no copies), so every allocation is bounded by the input actually
// present: declared counts and lengths are validated against the remaining
// bytes *before* any frame slice is taken, and a header that promises more
// than the input carries fails with a *FormatError instead of a huge
// preallocation.
func parseStream(data []byte) (*Stream, error) {
	if len(data) < len(streamMagic)+4 {
		return nil, &FormatError{Frame: -1, Reason: "truncated header"}
	}
	if string(data[:len(streamMagic)]) != streamMagic {
		return nil, &FormatError{Frame: -1, Reason: "not a P3 MJPEG stream"}
	}
	n := binary.BigEndian.Uint32(data[len(streamMagic):])
	rest := data[len(streamMagic)+4:]
	if n == 0 {
		return nil, &FormatError{Frame: -1, Reason: "zero frame count"}
	}
	if n > MaxFrames {
		return nil, &FormatError{Frame: -1, Reason: fmt.Sprintf("frame count %d over limit %d", n, MaxFrames)}
	}
	// Every frame costs at least its length prefix plus one body byte, so
	// a frame count the input cannot possibly hold is rejected before the
	// frame-table allocation.
	if int64(n)*(frameHeaderLen+1) > int64(len(rest)) {
		return nil, &FormatError{Frame: -1, Reason: fmt.Sprintf("frame count %d exceeds %d-byte input", n, len(data))}
	}
	s := &Stream{Frames: make([][]byte, n)}
	off := 0
	for i := range s.Frames {
		if len(rest)-off < frameHeaderLen {
			return nil, &FormatError{Frame: i, Reason: "truncated length prefix"}
		}
		flen := binary.BigEndian.Uint32(rest[off:])
		off += frameHeaderLen
		if flen == 0 {
			return nil, &FormatError{Frame: i, Reason: "zero length"}
		}
		if flen > MaxFrameLen {
			return nil, &FormatError{Frame: i, Reason: fmt.Sprintf("length %d over limit %d", flen, MaxFrameLen)}
		}
		if int64(flen) > int64(len(rest)-off) {
			return nil, &FormatError{Frame: i, Reason: fmt.Sprintf("length %d exceeds %d remaining bytes", flen, len(rest)-off)}
		}
		s.Frames[i] = rest[off : off+int(flen) : off+int(flen)]
		off += int(flen)
	}
	if off != len(rest) {
		return nil, &FormatError{Frame: -1, Reason: fmt.Sprintf("%d trailing bytes after last frame", len(rest)-off)}
	}
	return s, nil
}

// Parse parses a serialized stream in place: frames alias streamBytes and
// must be treated as read-only. Validation is identical to ReadStream's.
func Parse(streamBytes []byte) (*Stream, error) {
	return parseStream(streamBytes)
}

// ReadStream parses a serialized stream. The input is buffered in full
// first, so header fields claiming more frames or bytes than the input
// carries fail with a *FormatError instead of forcing allocations sized by
// attacker-controlled values; allocation is always bounded by the bytes
// actually read.
func ReadStream(r io.Reader) (*Stream, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("video: reading stream: %w", err)
	}
	return parseStream(data)
}

// FrameCount parses and validates a serialized stream and reports how many
// frames it holds.
func FrameCount(streamBytes []byte) (int, error) {
	s, err := parseStream(streamBytes)
	if err != nil {
		return 0, err
	}
	return len(s.Frames), nil
}

// Frame returns frame i of a serialized stream. The returned bytes alias
// streamBytes.
func Frame(streamBytes []byte, i int) ([]byte, error) {
	s, err := parseStream(streamBytes)
	if err != nil {
		return nil, err
	}
	if i < 0 || i >= len(s.Frames) {
		return nil, &FrameRangeError{Frame: i, Frames: len(s.Frames)}
	}
	return s.Frames[i], nil
}

// SplitResult carries a split video.
type SplitResult struct {
	// PublicStream is a valid stream of public-part JPEGs.
	PublicStream []byte
	// SecretBlob is one sealed container holding every frame's secret part.
	SecretBlob []byte
	// Frames is the clip's frame count.
	Frames int
	// Threshold echoes the T used.
	Threshold int
	// SecretStreamLen is the size of the secret stream before encryption,
	// for the storage-overhead accounting.
	SecretStreamLen int
}

// SplitStream splits every frame of an MJPEG stream with P3. All frames use
// the same threshold and key; the secret parts travel together in a single
// sealed container so the recipient makes one store round trip per video.
// Each frame takes core's per-image split pipeline (SplitScratch.Split), so
// a frame splits exactly as a photo does. Frames are split concurrently on
// opts.Workers (nil runs sequentially), each worker recycling one split
// scratch; outputs are byte-identical at every parallelism level.
func SplitStream(streamBytes []byte, key core.Key, opts *core.Options) (*SplitResult, error) {
	s, err := parseStream(streamBytes)
	if err != nil {
		return nil, err
	}
	if opts == nil {
		o := core.DefaultOptions
		opts = &o
	}
	threshold := opts.Threshold
	if threshold == 0 {
		threshold = core.DefaultThreshold
	}
	pub := &Stream{Frames: make([][]byte, len(s.Frames))}
	secrets := &Stream{Frames: make([][]byte, len(s.Frames))}
	var scratches sync.Pool
	err = opts.Workers.Do(len(s.Frames), func(i int) error {
		fs, _ := scratches.Get().(*core.SplitScratch)
		if fs == nil {
			fs = new(core.SplitScratch)
		}
		defer scratches.Put(fs)
		p, sec, err := fs.Split(s.Frames[i], threshold, opts)
		if err != nil {
			return fmt.Errorf("video: splitting frame %d: %w", i, err)
		}
		pub.Frames[i] = append([]byte(nil), p...)
		secrets.Frames[i] = append([]byte(nil), sec...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	var pubBuf, secBuf bytes.Buffer
	if err := pub.Write(&pubBuf); err != nil {
		return nil, err
	}
	if err := secrets.Write(&secBuf); err != nil {
		return nil, err
	}
	sealed, err := core.SealSecret(key, threshold, secBuf.Bytes())
	if err != nil {
		return nil, err
	}
	return &SplitResult{
		PublicStream:    pubBuf.Bytes(),
		SecretBlob:      sealed,
		Frames:          len(s.Frames),
		Threshold:       threshold,
		SecretStreamLen: secBuf.Len(),
	}, nil
}

// joinScratch is one worker's reusable per-frame working set for
// JoinStream: core's join scratch (decoder state for both parts, the
// reconstructed coefficient image) and the encode buffer.
type joinScratch struct {
	view core.ViewScratch
	buf  bytes.Buffer
}

// joinFrame reconstructs one frame exactly in the coefficient domain and
// re-encodes it.
func (fs *joinScratch) joinFrame(pubFrame, secFrame []byte, threshold int, i int, pool *work.Pool) ([]byte, error) {
	fs.buf.Reset()
	if err := fs.view.JoinCoeffs(&fs.buf, pubFrame, secFrame, threshold, pool); err != nil {
		return nil, fmt.Errorf("video: frame %d: %w", i, err)
	}
	return append([]byte(nil), fs.buf.Bytes()...), nil
}

// openSecretStream unseals the secret container and parses the secret
// stream, checking its frame count against the public stream's.
func openSecretStream(pub *Stream, secretBlob []byte, key core.Key) (int, *Stream, error) {
	threshold, secStreamBytes, err := core.OpenSecret(key, secretBlob)
	if err != nil {
		return 0, nil, err
	}
	secrets, err := parseStream(secStreamBytes)
	if err != nil {
		return 0, nil, err
	}
	if len(pub.Frames) != len(secrets.Frames) {
		return 0, nil, fmt.Errorf("video: %d public frames but %d secret frames", len(pub.Frames), len(secrets.Frames))
	}
	return threshold, secrets, nil
}

// JoinStream reconstructs the original MJPEG stream from an unprocessed
// public stream and the sealed secret container. Frame counts must match;
// every frame is recombined exactly in the coefficient domain. Frames join
// concurrently on opts.Workers (nil runs sequentially); output bytes are
// identical at every parallelism level.
func JoinStream(publicStream, secretBlob []byte, key core.Key, opts *core.Options) ([]byte, error) {
	pub, err := parseStream(publicStream)
	if err != nil {
		return nil, err
	}
	threshold, secrets, err := openSecretStream(pub, secretBlob, key)
	if err != nil {
		return nil, err
	}
	var pool *work.Pool
	if opts != nil {
		pool = opts.Workers
	}
	out := &Stream{Frames: make([][]byte, len(pub.Frames))}
	var scratches sync.Pool
	err = pool.Do(len(pub.Frames), func(i int) error {
		fs, _ := scratches.Get().(*joinScratch)
		if fs == nil {
			fs = new(joinScratch)
		}
		defer scratches.Put(fs)
		frame, err := fs.joinFrame(pub.Frames[i], secrets.Frames[i], threshold, i, pool)
		if err != nil {
			return err
		}
		out.Frames[i] = frame
		return nil
	})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := out.Write(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// JoinFrame reconstructs a single frame of a split video: the serving
// path's frame seek. It costs one container unseal plus one frame's decode
// → recombine → encode, not a whole-clip join. opts contributes only
// Workers (for the single frame's band pipeline).
func JoinFrame(publicStream, secretBlob []byte, key core.Key, frame int, opts *core.Options) ([]byte, error) {
	pub, err := parseStream(publicStream)
	if err != nil {
		return nil, err
	}
	if frame < 0 || frame >= len(pub.Frames) {
		return nil, &FrameRangeError{Frame: frame, Frames: len(pub.Frames)}
	}
	threshold, secrets, err := openSecretStream(pub, secretBlob, key)
	if err != nil {
		return nil, err
	}
	var pool *work.Pool
	if opts != nil {
		pool = opts.Workers
	}
	var fs joinScratch
	return fs.joinFrame(pub.Frames[frame], secrets.Frames[frame], threshold, frame, pool)
}
