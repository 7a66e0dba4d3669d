package stack

import (
	"bytes"
	"context"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"p3"
	"p3/internal/dataset"
	"p3/internal/jpegx"
	"p3/internal/metrics"
	"p3/internal/proxy"
	"p3/internal/psp"
)

// openSpec runs the -store grammar alone, the way Build does.
func openSpec(spec string, replicas int) (*Stack, p3.SecretStore, error) {
	s := &Stack{}
	store, err := s.openStore(Config{Store: spec, Replicas: replicas, Timeout: time.Second}, metrics.NewRegistry())
	return s, store, err
}

func TestParseStoreSpec(t *testing.T) {
	dir := t.TempDir()
	disk := func(name string) string { return "disk:" + filepath.Join(dir, name) }

	_, single, err := openSpec(disk("a"), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := single.(*p3.DiskSecretStore); !ok {
		t.Errorf("single backend = %T, want *p3.DiskSecretStore", single)
	}

	_, sharded, err := openSpec(disk("a")+","+disk("b"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if sh, ok := sharded.(*p3.ErasureSecretStore); !ok {
		t.Errorf("multi backend = %T (replicas?), want 2-replica *p3.ErasureSecretStore", sharded)
	} else if k, n := sh.Scheme(); k != 1 || n != 2 {
		t.Errorf("multi backend scheme = %d-of-%d, want 1-of-2", k, n)
	}

	ecSpec := "erasure:k=2,n=3," + disk("a") + "," + disk("b") + "," + disk("c")
	s, erasure, err := openSpec(ecSpec, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	es, ok := erasure.(*p3.ErasureSecretStore)
	if !ok {
		t.Fatalf("erasure spec = %T, want *p3.ErasureSecretStore", erasure)
	}
	if k, n := es.Scheme(); k != 2 || n != 3 {
		t.Errorf("scheme = %d-of-%d, want 2-of-3", k, n)
	}

	for _, bad := range []struct {
		spec     string
		replicas int
	}{
		{"ftp://nope", 1},
		{"erasure:k=4,n=6," + disk("a"), 1}, // not enough shards for the scheme
		{"erasure:k=zzz," + disk("a"), 1},
		{"erasure:k=4x,n=6y," + disk("a"), 1}, // trailing garbage must not parse as 4/6
		{"erasure:k=-1,n=3," + disk("a"), 1},
		{"", 1},
		{disk("a"), 2}, // more replicas than stores
		{ecSpec, 2},    // -replicas contradicts erasure:, which used to ignore it silently
	} {
		if _, _, err := openSpec(bad.spec, bad.replicas); err == nil {
			t.Errorf("spec %q with %d replicas accepted", bad.spec, bad.replicas)
		}
	}
}

// threeDisks is a -store list of three fresh disk shards.
func threeDisks(t *testing.T) string {
	dir := t.TempDir()
	return "disk:" + filepath.Join(dir, "a") + ",disk:" + filepath.Join(dir, "b") + ",disk:" + filepath.Join(dir, "c")
}

func TestWrapShardSeesEveryLeafInOrder(t *testing.T) {
	var seen []int
	s := &Stack{}
	defer s.Close()
	_, err := s.openStore(Config{
		Store: "erasure:k=2,n=3," + threeDisks(t),
		WrapShard: func(i int, st p3.SecretStore) p3.SecretStore {
			seen = append(seen, i)
			return st
		},
	}, metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seen, []int{0, 1, 2}) {
		t.Errorf("WrapShard saw shards %v, want [0 1 2]", seen)
	}
}

// settle waits for the goroutine count to fall back to base. Close waits
// for every loop it stops, but the erasure daemon's cancel-forwarding
// helper exits a moment after the daemon itself, so the count is polled.
func settle(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines still running, baseline %d:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// everythingOn is a config with every background loop the stack can start:
// the erasure scrub daemon, the similarity workers and the recalibration
// loop (at an interval that never fires inside the test).
func everythingOn(t *testing.T) Config {
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Key = key
	cfg.Registry = metrics.NewRegistry()
	cfg.Store = "erasure:k=2,n=3," + threeDisks(t)
	cfg.ScrubInterval = 5 * time.Millisecond
	cfg.RecalibrateInterval = time.Hour
	cfg.Similarity = true
	cfg.Dedup = true
	cfg.MaxInflight = 4
	return cfg
}

func TestBuildFailureLeavesNothingRunning(t *testing.T) {
	base := runtime.NumGoroutine()

	// The disk stores open, then the scheme is refused.
	cfg := everythingOn(t)
	cfg.Store = "erasure:k=2,n=4," + threeDisks(t)
	if st, err := Build(cfg); err == nil {
		st.Close()
		t.Fatal("n >= 2k erasure scheme accepted")
	}
	settle(t, base)

	// The erasure store is up and its scrub daemon running when the codec
	// refuses the threshold: the half-built stack must stop the daemon.
	cfg = everythingOn(t)
	cfg.Threshold = -1
	if st, err := Build(cfg); err == nil {
		st.Close()
		t.Fatal("negative threshold accepted")
	}
	settle(t, base)

	// Likewise when the admission layer refuses its config, one step later.
	cfg = everythingOn(t)
	cfg.QueueDepth = -1
	if st, err := Build(cfg); err == nil {
		st.Close()
		t.Fatal("negative queue depth accepted")
	}
	settle(t, base)
}

func TestCloseStopsEverythingBuildStarted(t *testing.T) {
	base := runtime.NumGoroutine()
	st, err := Build(everythingOn(t))
	if err != nil {
		t.Fatal(err)
	}
	if st.Dedup == nil || st.Similarity == nil || st.Admission == nil {
		t.Fatalf("optional handles missing: dedup %v similarity %v admission %v",
			st.Dedup != nil, st.Similarity != nil, st.Admission != nil)
	}
	if _, ok := st.Store.(*p3.ErasureSecretStore); !ok {
		t.Fatalf("store = %T, want *p3.ErasureSecretStore", st.Store)
	}
	if runtime.NumGoroutine() <= base {
		t.Fatal("Build started no goroutines; the test would prove nothing")
	}
	// The store keeps working up to Close, with the scrubber live beside it.
	if err := st.Store.PutSecret(context.Background(), "x", []byte("sealed")); err != nil {
		t.Fatal(err)
	}
	st.Close()
	settle(t, base)
	st.Close() // idempotent
}

func TestCloseRunsClosersOnceInReverseOrder(t *testing.T) {
	var order []int
	s := &Stack{}
	for i := 1; i <= 3; i++ {
		s.closers = append(s.closers, func() { order = append(order, i) })
	}
	s.Close()
	s.Close()
	if !reflect.DeepEqual(order, []int{3, 2, 1}) {
		t.Errorf("closers ran in order %v, want [3 2 1] exactly once", order)
	}
}

// TestDefaultStackMatchesHandAssembly is the differential gate on the
// builder: a stack built from p3proxy's default flag values serves bytes
// identical to the proxy those flags used to assemble by hand.
func TestDefaultStackMatchesHandAssembly(t *testing.T) {
	if testing.Short() {
		t.Skip("calibrates two proxies")
	}
	pspSrv := httptest.NewServer(psp.NewServer(psp.FacebookLike()))
	defer pspSrv.Close()
	blobSrv := httptest.NewServer(psp.NewBlobStore())
	defer blobSrv.Close()
	key, err := p3.NewKey()
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Key, cfg.PSP, cfg.Store = key, pspSrv.URL, blobSrv.URL
	cfg.Registry = metrics.NewRegistry()
	st, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	codec, err := p3.New(key, p3.WithThreshold(p3.DefaultThreshold))
	if err != nil {
		t.Fatal(err)
	}
	byHand := proxy.New(codec, p3.NewHTTPPhotoService(pspSrv.URL), p3.NewHTTPSecretStore(blobSrv.URL),
		proxy.WithMetricsRegistry(metrics.NewRegistry()))

	coeffs, err := dataset.Natural(7, 400, 300).ToCoeffs(90, jpegx.Sub420)
	if err != nil {
		t.Fatal(err)
	}
	var photo bytes.Buffer
	if err := jpegx.EncodeCoeffs(&photo, coeffs, nil); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var ids [2]string
	for i, px := range []*proxy.Proxy{st.Proxy, byHand} {
		if _, err := px.Calibrate(ctx); err != nil {
			t.Fatal(err)
		}
		if ids[i], err = px.Upload(ctx, photo.Bytes()); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{"", "size=thumb", "size=small", "size=big", "w=200&h=150", "crop=40,30,160,120&w=80&h=60"} {
		vals, err := url.ParseQuery(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Proxy.Download(ctx, ids[0], vals)
		if err != nil {
			t.Fatalf("stack download %q: %v", q, err)
		}
		want, err := byHand.Download(ctx, ids[1], vals)
		if err != nil {
			t.Fatalf("hand-assembled download %q: %v", q, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("variant %q: stack served %d bytes, hand assembly %d, not identical", q, len(got), len(want))
		}
	}
}
