package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"sync"
	"time"

	"p3/internal/jpegx"
	"p3/internal/proxy"
	"p3/internal/vision"
)

// noopHandler answers every request with an empty 204.
var noopHandler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(http.StatusNoContent) })

// harnessSelf times the op loop itself: view ops against a handler that
// does nothing. It is the harness's share of every request.
func harnessSelf(r *runner) float64 {
	c := newClient(&runner{w: r.w, cfg: r.cfg, sources: r.sources, pre: []*photo{newPhoto("harness", 0)}}, 0)
	o := op{kind: opView}
	start := time.Now()
	for i := 0; i < harnessOps; i++ {
		o.variant = uint8(i % numVariants)
		t0, t1 := c.do(noopHandler, o, nil)
		c.lat[opView].add(int64(t1.Sub(t0)))
	}
	return float64(time.Since(start).Microseconds()) / harnessOps
}

// sideUploads runs a closed-loop window of uploads alone, from both
// clients, and returns the wall times. It measures this stack's upload
// latency for a workload whose own window has no uploads. Only the largest
// size class the row has is uploaded: a small upload's wall time on a
// sandbox disk is mostly fsync wait, which swings by half between runs,
// while a large one is mostly the split.
func (r *runner) sideUploads(dur time.Duration) *latencies {
	var ops []op
	first := 0
	for _, n := range r.w.sources {
		if n > 0 {
			ops = ops[:0]
			for i := 0; i < n; i++ {
				ops = append(ops, op{kind: opUpload, src: uint16(first + i)})
			}
		}
		first += n
	}
	clients := [numClients]*client{newClient(r, 0), newClient(r, 1)}
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		c.ops, c.next = ops, i*len(ops)/numClients
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.window(r.st.proxy, start, dur, false)
		}()
	}
	wg.Wait()
	out := new(latencies)
	for _, c := range clients {
		out.merge(c.lat[opUpload])
		r.res.Attempted += c.attempted
		r.res.Failed += c.failed
		if c.firstErr != "" {
			r.res.violate("side uploads: %s", c.firstErr)
		}
	}
	return out
}

// verify is the post-window correctness pass. It samples up to four
// S-class photos of the sample sources in four variants (the PSNR pairs)
// plus two M and one L photo at size=small, requests each — possibly from
// cache, i.e. the bytes the window served — then empties the caches, fails
// two of six erasure shards, and requests each again cold: the bytes must
// match, the length must equal the first one any client saw in the window,
// and the pairs' luma PSNR against the PSP pipeline on the unsplit
// original must clear the calibration floor. It returns the cold timings.
func (r *runner) verify(clients []*client) *latencies {
	res := r.res
	type pair struct {
		ph *photo
		v  uint8
	}
	var pairs []pair
	var extra [numClasses]int
	seen := map[int]bool{}
	all := append([]*photo(nil), r.pre...)
	for _, c := range clients {
		all = append(all, c.own...)
	}
	for _, ph := range all {
		class := r.sources[ph.src].class
		switch {
		case class == classS && ph.src < sampleSources && !seen[ph.src]:
			seen[ph.src] = true
			for _, v := range sampleVariants {
				pairs = append(pairs, pair{ph, v})
			}
		case class != classS && extra[class] < 3-class: // two M, one L
			extra[class]++
			pairs = append(pairs, pair{ph, 1})
		}
	}
	if len(pairs) == 0 {
		res.violate("no photo to verify")
		return new(latencies)
	}

	c := newClient(r, 0)
	fetch := func(p pair) []byte {
		c.w.reset(true)
		c.r.st.proxy.ServeHTTP(&c.w, p.ph.reqs[p.v])
		if c.w.status != http.StatusOK {
			res.Failed++
			res.violate("verify GET %s: status %d %s", p.ph.reqs[p.v].URL, c.w.status, bytes.TrimSpace(c.w.body))
			return nil
		}
		return bytes.Clone(c.w.body)
	}
	first := make([][]byte, len(pairs))
	for i, p := range pairs {
		first[i] = fetch(p)
	}
	r.st.proxy.InvalidateCaches()
	if r.st.erasure {
		r.st.shards[1].down.Store(true)
		r.st.shards[4].down.Store(true)
		defer r.st.shards[1].down.Store(false)
		defer r.st.shards[4].down.Store(false)
	}
	cold := new(latencies)
	var psnrSum float64
	var psnrN int
	for i, p := range pairs {
		t := time.Now()
		b := fetch(p)
		cold.add(int64(time.Since(t)))
		res.Attempted++
		if first[i] == nil || b == nil {
			continue
		}
		if !bytes.Equal(b, first[i]) {
			res.Failed++
			res.violate("GET %s: cold re-request differs from the first response", p.ph.reqs[p.v].URL)
		}
		for _, cl := range clients {
			if n := cl.firstLen[p.ph.src*numVariants+int(p.v)]; n != 0 && int(n) != len(b) {
				res.Failed++
				res.violate("GET %s: %d bytes after the window, %d inside it", p.ph.reqs[p.v].URL, len(b), n)
			}
		}
		if ref := r.refs[[2]int{p.ph.src, int(p.v)}]; ref != nil {
			db, err := lumaPSNR(b, ref)
			if err != nil {
				res.Failed++
				res.violate("GET %s: %v", p.ph.reqs[p.v].URL, err)
				continue
			}
			psnrSum += db
			psnrN++
		}
	}
	if psnrN > 0 {
		res.set("recon_psnr_db", psnrSum/float64(psnrN), "dB")
		if psnrSum/float64(psnrN) < proxy.DefaultProbeFloorDB {
			res.violate("recon_psnr_db %.2f under the calibration floor %d", psnrSum/float64(psnrN), proxy.DefaultProbeFloorDB)
		}
	} else {
		res.violate("no PSNR pair among the verified photos")
	}
	res.Samples["recon_psnr"] = int64(psnrN)
	return cold
}

// lumaPSNR decodes a served JPEG and compares its luma plane with ref's.
func lumaPSNR(jpegBytes []byte, ref *jpegx.PlanarImage) (float64, error) {
	im, err := jpegx.DecodeBytes(jpegBytes)
	if err != nil {
		return 0, err
	}
	luma := func(p *jpegx.PlanarImage) *jpegx.PlanarImage {
		return &jpegx.PlanarImage{Width: p.Width, Height: p.Height, Planes: p.Planes[:1]}
	}
	db, err := vision.PSNR(luma(im.ToPlanar()), luma(ref))
	return math.Min(db, 99), err // identical images read +Inf, which JSON cannot carry
}

// roundTrips checks split→join identity for every photo of the corpus: the
// joined JPEG carries exactly the original's coefficients, so re-encoding
// it the way the corpus was encoded must give back the original bytes.
func (r *runner) roundTrips() error {
	for i, src := range r.sources {
		out, err := r.codec.SplitBytes(src.jpeg)
		if err != nil {
			return fmt.Errorf("source %d: split: %w", i, err)
		}
		joined, err := r.codec.JoinBytes(out.PublicJPEG, out.SecretBlob)
		if err != nil {
			return fmt.Errorf("source %d: join: %w", i, err)
		}
		im, err := jpegx.DecodeBytes(joined)
		if err != nil {
			return fmt.Errorf("source %d: decoding the join: %w", i, err)
		}
		var buf bytes.Buffer
		if err := jpegx.EncodeCoeffs(&buf, im, nil); err != nil {
			return fmt.Errorf("source %d: re-encoding the join: %w", i, err)
		}
		if !bytes.Equal(buf.Bytes(), src.jpeg) {
			return fmt.Errorf("source %d: split→join does not restore the original bytes", i)
		}
	}
	return nil
}
