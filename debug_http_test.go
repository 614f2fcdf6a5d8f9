package vaq

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"vaq/internal/core"
	"vaq/internal/diag"
	"vaq/internal/metrics"
	"vaq/internal/trace"
)

// TestPublishIdempotent pins the re-publish contract of every debug
// surface: registering a second index under a name an earlier index
// already used must rebind, not panic (expvar.Publish panics on
// duplicates — hostile to tests and index reloads), and subsequent
// scrapes must reflect the newest index.
func TestPublishIdempotent(t *testing.T) {
	build := func() *Index {
		ix, _ := metricsTestIndex(t, 400, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 3})
		return ix
	}
	cases := []struct {
		name    string
		publish func(ix *Index, as string)
	}{
		{"expvar", func(ix *Index, as string) { metrics.Publish(as, ix.inner.Metrics()) }},
		{"diagnostics", func(ix *Index, as string) { diag.Publish(as, ix.inner.Diagnose) }},
		{"trace", func(ix *Index, as string) {
			trace.Publish(as, ix.EnableTracing(TraceConfig{RingSize: 8}))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			name := "vaq_republish_" + tc.name
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("double publish under %q panicked: %v", name, r)
				}
			}()
			first, second := build(), build()
			tc.publish(first, name)
			tc.publish(second, name) // must rebind silently
			tc.publish(second, name) // and stay idempotent
		})
	}

	// The rebind is live, not just panic-free: after republishing, the
	// metrics endpoint serves the new index's counters.
	old, data := metricsTestIndex(t, 400, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 3})
	fresh, _ := metricsTestIndex(t, 400, 8, core.Config{NumSubspaces: 4, Budget: 16, Seed: 4})
	metrics.Publish("vaq_rebind_check", old.inner.Metrics())
	if _, err := old.Search(data[0], 3); err != nil {
		t.Fatal(err)
	}
	metrics.Publish("vaq_rebind_check", fresh.inner.Metrics())
	srv, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vaq/metrics?index=vaq_rebind_check", srv.Addr))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := `vaq_queries_total{index="vaq_rebind_check"} 0`; !strings.Contains(string(body), want) {
		t.Errorf("rebind did not take effect: missing %q in\n%.400s", want, body)
	}
}

// TestServeDebugShutdown pins the server lifecycle: a second ServeDebug on
// another port coexists with the first, Close stops accepting new
// connections, and the released address does not wedge future listens.
func TestServeDebugShutdown(t *testing.T) {
	srv1, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := metrics.ServeDebug("127.0.0.1:0")
	if err != nil {
		srv1.Close()
		t.Fatalf("second ServeDebug: %v", err)
	}
	for _, srv := range []*http.Server{srv1, srv2} {
		resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv.Addr))
		if err != nil {
			t.Fatalf("GET %s: %v", srv.Addr, err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", srv.Addr, resp.StatusCode)
		}
	}
	if err := srv2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The closed server must refuse new connections (promptly — not hang).
	client := &http.Client{Timeout: 2 * time.Second}
	if resp, err := client.Get(fmt.Sprintf("http://%s/debug/vars", srv2.Addr)); err == nil {
		resp.Body.Close()
		t.Errorf("closed server still answered on %s", srv2.Addr)
	}
	// The first server is unaffected by its sibling's shutdown.
	resp, err := http.Get(fmt.Sprintf("http://%s/debug/vars", srv1.Addr))
	if err != nil {
		t.Fatalf("surviving server: %v", err)
	}
	resp.Body.Close()
	if err := srv1.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// The released port is reusable immediately.
	srv3, err := metrics.ServeDebug(srv1.Addr)
	if err != nil {
		t.Fatalf("relisten on %s: %v", srv1.Addr, err)
	}
	srv3.Close()
}
