#!/usr/bin/env bash
# p3proxy lifecycle smoke: boot pspsim and p3proxy on loopback over a disk
# store, with the background recalibration loop and the similarity workers
# running; read /stats, upload one photo and view it through the proxy; then
# SIGTERM the proxy and require a clean exit (status 0, "stopped" logged)
# within 10 s. Run from the repository root: bash .github/p3proxy-lifecycle.sh
set -euo pipefail

psp_addr=127.0.0.1:18090
proxy_addr=127.0.0.1:19091
tmp="$(mktemp -d)"
psp_pid=
proxy_pid=
cleanup() {
  [ -n "$proxy_pid" ] && kill -KILL "$proxy_pid" 2>/dev/null || true
  [ -n "$psp_pid" ] && kill "$psp_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT
fail() {
  echo "lifecycle smoke: $*" >&2
  [ -f "$tmp/proxy.log" ] && sed 's/^/  p3proxy: /' "$tmp/proxy.log" >&2
  exit 1
}

mkdir -p "$tmp/bin" "$tmp/store"
go build -o "$tmp/bin/" ./cmd/pspsim ./cmd/p3proxy ./cmd/p3

# A test photo: the repo ships no fixtures, so encode a textured 320x240
# JPEG with the standard library (the file is stdlib-only, so it runs
# outside the module).
cat > "$tmp/gen.go" <<'EOF'
package main

import (
	"image"
	"image/color"
	"image/jpeg"
	"math"
	"os"
)

func main() {
	img := image.NewRGBA(image.Rect(0, 0, 320, 240))
	for y := 0; y < 240; y++ {
		for x := 0; x < 320; x++ {
			fx, fy := float64(x), float64(y)
			img.Set(x, y, color.RGBA{
				R: uint8(128 + 100*math.Sin(fx/17)*math.Cos(fy/23)),
				G: uint8(128 + 90*math.Sin((fx+fy)/31)),
				B: uint8((x*y/40 + 3*x) % 256),
				A: 255,
			})
		}
	}
	f, err := os.Create(os.Args[1])
	if err != nil {
		panic(err)
	}
	if err := jpeg.Encode(f, img, &jpeg.Options{Quality: 90}); err != nil {
		panic(err)
	}
	if err := f.Close(); err != nil {
		panic(err)
	}
}
EOF
go run "$tmp/gen.go" "$tmp/photo.jpg"
"$tmp/bin/p3" keygen -key "$tmp/k.hex"

"$tmp/bin/pspsim" -addr "$psp_addr" -store-addr '' -pipeline facebook > "$tmp/psp.log" 2>&1 &
psp_pid=$!
"$tmp/bin/p3proxy" -addr "$proxy_addr" -psp "http://$psp_addr" -store "disk:$tmp/store" \
  -key "$tmp/k.hex" -recalibrate-interval 1s -similarity > "$tmp/proxy.log" 2>&1 &
proxy_pid=$!

# Start-up calibration sweeps a parameter grid (~30 s on a small runner).
for _ in $(seq 180); do
  grep -q 'listening on' "$tmp/proxy.log" && break
  kill -0 "$proxy_pid" 2>/dev/null || fail "p3proxy died during start-up"
  sleep 1
done
grep -q 'listening on' "$tmp/proxy.log" || fail "p3proxy never started listening"

get() { curl -sf --retry 5 --retry-connrefused --retry-delay 1 "$@"; }
get "http://$proxy_addr/stats" > "$tmp/stats.json" || fail "GET /stats failed"
grep -q '"calibration"' "$tmp/stats.json" || fail "/stats has no calibration block"
id="$(get -X POST --data-binary @"$tmp/photo.jpg" "http://$proxy_addr/upload" |
  sed -n 's/.*"id" *: *"\([^"]*\)".*/\1/p')"
[ -n "$id" ] || fail "upload returned no id"
get "http://$proxy_addr/photo/$id?size=thumb" -o "$tmp/thumb.jpg" || fail "view of $id failed"
[ -s "$tmp/thumb.jpg" ] || fail "view of $id was empty"
ls "$tmp/store" | grep -q . || fail "no secret part reached the disk store"

kill -TERM "$proxy_pid"
for _ in $(seq 100); do
  kill -0 "$proxy_pid" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$proxy_pid" 2>/dev/null && fail "p3proxy still running 10 s after SIGTERM"
code=0
wait "$proxy_pid" || code=$?
proxy_pid=
[ "$code" -eq 0 ] || fail "p3proxy exited $code after SIGTERM, want 0"
grep -q 'p3proxy: stopped' "$tmp/proxy.log" || fail "p3proxy never logged its clean stop"
echo "lifecycle smoke: ok (uploaded and viewed $id, clean exit on SIGTERM)"
