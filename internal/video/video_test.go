package video

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"

	"p3/internal/core"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/vision"
	"p3/internal/work"
)

// testClip renders a short "panning camera" clip: the same scene shifted a
// little each frame, as consecutive video frames are.
func testClip(t *testing.T, frames, w, h int) []byte {
	t.Helper()
	big := dataset.Natural(321, w+frames*4, h)
	s := &Stream{}
	for f := 0; f < frames; f++ {
		crop := jpegx.NewPlanarImage(w, h, 3)
		for pi := 0; pi < 3; pi++ {
			for y := 0; y < h; y++ {
				copy(crop.Planes[pi][y*w:y*w+w], big.Planes[pi][y*big.Width+f*4:y*big.Width+f*4+w])
			}
		}
		coeffs, err := crop.ToCoeffs(90, jpegx.Sub420)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&buf, coeffs, nil); err != nil {
			t.Fatal(err)
		}
		s.Frames = append(s.Frames, buf.Bytes())
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestStreamRoundTrip(t *testing.T) {
	raw := testClip(t, 4, 96, 64)
	s, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Frames) != 4 {
		t.Fatalf("%d frames", len(s.Frames))
	}
	var buf bytes.Buffer
	if err := s.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Error("stream serialization not stable")
	}
}

func TestStreamErrors(t *testing.T) {
	if _, err := ReadStream(bytes.NewReader([]byte("nope"))); err == nil {
		t.Error("junk accepted")
	}
	raw := testClip(t, 2, 48, 48)
	if _, err := ReadStream(bytes.NewReader(raw[:len(raw)-5])); err == nil {
		t.Error("truncated stream accepted")
	}
	empty := &Stream{}
	if err := empty.Write(&bytes.Buffer{}); err == nil {
		t.Error("empty stream accepted")
	}
}

// corrupt returns raw with the 4 bytes at off overwritten by v.
func corrupt(raw []byte, off int, v uint32) []byte {
	out := append([]byte(nil), raw...)
	binary.BigEndian.PutUint32(out[off:], v)
	return out
}

// TestReadStreamHostileHeaders is the attacker's view of the container
// format: header fields claiming far more frames or bytes than the input
// carries must fail with a typed *FormatError before any allocation sized
// by the claim.
func TestReadStreamHostileHeaders(t *testing.T) {
	raw := testClip(t, 2, 48, 48)
	cases := []struct {
		name string
		data []byte
	}{
		// Frame count claims a million frames; the input holds two.
		{"huge frame count", corrupt(raw, 4, 1<<20)},
		{"over-limit frame count", corrupt(raw, 4, 1<<31)},
		{"zero frame count", corrupt(raw, 4, 0)},
		// First frame's length prefix claims 64 MiB; the input is a few KB.
		{"huge frame length", corrupt(raw, 8, 64<<20)},
		{"over-limit frame length", corrupt(raw, 8, 1<<31)},
		{"zero frame length", corrupt(raw, 8, 0)},
		{"trailing garbage", append(append([]byte(nil), raw...), 0xde, 0xad)},
		{"header only", raw[:8]},
		{"short header", raw[:5]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ReadStream(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("hostile input accepted")
			}
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("want *FormatError, got %T: %v", err, err)
			}
		})
	}
}

// TestFrameAccess exercises the random-access helpers against the full
// parse.
func TestFrameAccess(t *testing.T) {
	raw := testClip(t, 3, 48, 48)
	n, err := FrameCount(raw)
	if err != nil || n != 3 {
		t.Fatalf("FrameCount = %d, %v", n, err)
	}
	s, err := ReadStream(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		f, err := Frame(raw, i)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(f, s.Frames[i]) {
			t.Errorf("Frame(%d) differs from parsed stream", i)
		}
	}
	for _, bad := range []int{-1, n} {
		_, err := Frame(raw, bad)
		var re *FrameRangeError
		if !errors.As(err, &re) {
			t.Errorf("Frame(%d): want *FrameRangeError, got %v", bad, err)
		}
	}
}

// TestParallelMatchesSequential is the tentpole guarantee: the pooled,
// frame-parallel split and join produce byte-identical streams to the
// sequential path. (Sealed blobs differ — the seal nonce is random — so the
// secret streams are compared after unsealing.)
func TestParallelMatchesSequential(t *testing.T) {
	raw := testClip(t, 6, 96, 64)
	key, err := core.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	seqOpts := &core.Options{Threshold: 15, OptimizeHuffman: true}
	parOpts := &core.Options{Threshold: 15, OptimizeHuffman: true, Workers: work.New(8)}

	seq, err := SplitStream(raw, key, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := SplitStream(raw, key, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seq.PublicStream, par.PublicStream) {
		t.Error("parallel public stream differs from sequential")
	}
	_, seqSec, err := core.OpenSecret(key, seq.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	_, parSec, err := core.OpenSecret(key, par.SecretBlob)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqSec, parSec) {
		t.Error("parallel secret stream differs from sequential")
	}

	seqJoin, err := JoinStream(seq.PublicStream, seq.SecretBlob, key, seqOpts)
	if err != nil {
		t.Fatal(err)
	}
	parJoin, err := JoinStream(par.PublicStream, par.SecretBlob, key, parOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqJoin, parJoin) {
		t.Error("parallel join differs from sequential")
	}
}

// TestSplitStreamMatchesPerFrameSplit holds SplitStream to the reference
// per-frame pipeline — decode, core.Split, EncodeCoeffs of each part — for
// both table choices, on a clip mixing baseline frames (which the fused
// capture splits) with a progressive one (which it does not).
func TestSplitStreamMatchesPerFrameSplit(t *testing.T) {
	clip, err := ReadStream(bytes.NewReader(testClip(t, 3, 96, 64)))
	if err != nil {
		t.Fatal(err)
	}
	im, err := jpegx.DecodeBytes(clip.Frames[0])
	if err != nil {
		t.Fatal(err)
	}
	var prog bytes.Buffer
	if err := jpegx.EncodeCoeffs(&prog, im, &jpegx.EncodeOptions{Progressive: true}); err != nil {
		t.Fatal(err)
	}
	clip.Frames = append(clip.Frames, prog.Bytes())
	var raw bytes.Buffer
	if err := clip.Write(&raw); err != nil {
		t.Fatal(err)
	}
	key, err := core.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	for _, optimize := range []bool{false, true} {
		opts := &core.Options{Threshold: 12, OptimizeHuffman: optimize, Workers: work.New(2)}
		split, err := SplitStream(raw.Bytes(), key, opts)
		if err != nil {
			t.Fatal(err)
		}
		_, secStream, err := core.OpenSecret(key, split.SecretBlob)
		if err != nil {
			t.Fatal(err)
		}
		pubRef, secRef := &Stream{}, &Stream{}
		for i, frame := range clip.Frames {
			im, err := jpegx.DecodeBytes(frame)
			if err != nil {
				t.Fatal(err)
			}
			im.StripMarkers()
			pub, sec, err := core.Split(im, 12)
			if err != nil {
				t.Fatal(err)
			}
			var pb, sb bytes.Buffer
			enc := &jpegx.EncodeOptions{OptimizeHuffman: optimize}
			if err := jpegx.EncodeCoeffs(&pb, pub, enc); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			if err := jpegx.EncodeCoeffs(&sb, sec, enc); err != nil {
				t.Fatalf("frame %d: %v", i, err)
			}
			pubRef.Frames = append(pubRef.Frames, pb.Bytes())
			secRef.Frames = append(secRef.Frames, sb.Bytes())
		}
		var pubWant, secWant bytes.Buffer
		if err := pubRef.Write(&pubWant); err != nil {
			t.Fatal(err)
		}
		if err := secRef.Write(&secWant); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(split.PublicStream, pubWant.Bytes()) {
			t.Errorf("optimize=%v: public stream differs from the per-frame split", optimize)
		}
		if !bytes.Equal(secStream, secWant.Bytes()) {
			t.Errorf("optimize=%v: secret stream differs from the per-frame split", optimize)
		}
	}
}

// TestJoinFrame checks the frame seek against the whole-clip join.
func TestJoinFrame(t *testing.T) {
	raw := testClip(t, 4, 96, 64)
	key, _ := core.NewKey()
	split, err := SplitStream(raw, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := JoinStream(split.PublicStream, split.SecretBlob, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	js, err := ReadStream(bytes.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	for i := range js.Frames {
		frame, err := JoinFrame(split.PublicStream, split.SecretBlob, key, i, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame, js.Frames[i]) {
			t.Errorf("JoinFrame(%d) differs from whole-clip join", i)
		}
	}
	_, err = JoinFrame(split.PublicStream, split.SecretBlob, key, 99, nil)
	var re *FrameRangeError
	if !errors.As(err, &re) {
		t.Errorf("out-of-range seek: want *FrameRangeError, got %v", err)
	}
}

func TestSplitJoinStreamExact(t *testing.T) {
	raw := testClip(t, 5, 96, 64)
	key, err := core.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	split, err := SplitStream(raw, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	if split.Threshold != core.DefaultThreshold {
		t.Errorf("threshold %d", split.Threshold)
	}
	// The public stream is valid MJPEG with degraded frames.
	pub, err := ReadStream(bytes.NewReader(split.PublicStream))
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := ReadStream(bytes.NewReader(raw))
	for i := range pub.Frames {
		pim, err := jpegx.Decode(bytes.NewReader(pub.Frames[i]))
		if err != nil {
			t.Fatalf("public frame %d: %v", i, err)
		}
		oim, err := jpegx.Decode(bytes.NewReader(orig.Frames[i]))
		if err != nil {
			t.Fatal(err)
		}
		p, err := vision.PSNR(oim.ToPlanar(), pim.ToPlanar())
		if err != nil {
			t.Fatal(err)
		}
		if p > 25 {
			t.Errorf("public frame %d PSNR %.1f dB — not degraded", i, p)
		}
	}
	// Join restores every frame exactly in the coefficient domain.
	joined, err := JoinStream(split.PublicStream, split.SecretBlob, key, nil)
	if err != nil {
		t.Fatal(err)
	}
	js, err := ReadStream(bytes.NewReader(joined))
	if err != nil {
		t.Fatal(err)
	}
	for i := range js.Frames {
		jim, err := jpegx.Decode(bytes.NewReader(js.Frames[i]))
		if err != nil {
			t.Fatal(err)
		}
		oim, err := jpegx.Decode(bytes.NewReader(orig.Frames[i]))
		if err != nil {
			t.Fatal(err)
		}
		for ci := range oim.Components {
			for bi := range oim.Components[ci].Blocks {
				if jim.Components[ci].Blocks[bi] != oim.Components[ci].Blocks[bi] {
					t.Fatalf("frame %d not reconstructed exactly", i)
				}
			}
		}
	}
}

func TestJoinStreamWrongKey(t *testing.T) {
	raw := testClip(t, 2, 48, 48)
	k1, _ := core.NewKey()
	k2, _ := core.NewKey()
	split, err := SplitStream(raw, k1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := JoinStream(split.PublicStream, split.SecretBlob, k2, nil); err == nil {
		t.Error("wrong key accepted")
	}
}

func TestSplitStreamOverhead(t *testing.T) {
	raw := testClip(t, 4, 96, 64)
	key, _ := core.NewKey()
	split, err := SplitStream(raw, key, &core.Options{Threshold: 15, OptimizeHuffman: true})
	if err != nil {
		t.Fatal(err)
	}
	total := len(split.PublicStream) + len(split.SecretBlob)
	overhead := float64(total)/float64(len(raw)) - 1
	if math.Abs(overhead) > 0.5 {
		t.Errorf("split overhead %.0f%% implausible", 100*overhead)
	}
	t.Logf("video split: %d B -> %d B public + %d B secret (%.1f%% overhead)",
		len(raw), len(split.PublicStream), len(split.SecretBlob), 100*overhead)
}
