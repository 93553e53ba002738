package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
)

func TestDebugServer(t *testing.T) {
	r := New()
	r.Add(MRedoExamined, 7)

	srv, addr, err := ServeDebug("127.0.0.1:0", func() any {
		return map[string]Snapshot{"m": r.Snapshot()}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	var metrics map[string]Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &metrics); err != nil {
		t.Fatalf("decoding /metrics: %v", err)
	}
	if metrics["m"].Counter(MRedoExamined) != 7 {
		t.Fatalf("/metrics snapshot = %+v", metrics)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars missing the runtime's memstats:\n%s", body)
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Fatalf("/debug/pprof/ index:\n%s", body)
	}
}

func TestDebugMuxNilSnapshot(t *testing.T) {
	srv, addr, err := ServeDebug("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}
