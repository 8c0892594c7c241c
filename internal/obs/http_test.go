package obs

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// bareOperator is an operator plane with no status sources, ready from
// the start: the daemon's /metrics, /healthz and pprof surface.
func bareOperator(reg *Registry) *Operator {
	op := NewOperator(reg)
	op.SetReady(true)
	return op
}

func TestBareOperatorEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(MetricNetDaysTotal).Add(2)
	srv := httptest.NewServer(bareOperator(reg).Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body)
	}

	if code, body := get("/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz = %d %q", code, body)
	}
	code, body := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if !strings.Contains(body, "enki_netproto_days_total 2") {
		t.Errorf("/metrics missing series:\n%s", body)
	}
	if code, body := get("/debug/pprof/"); code != http.StatusOK || !strings.Contains(body, "profiles") {
		t.Errorf("/debug/pprof/ = %d", code)
	}
}

func TestServeOperatorBindsEphemeralPort(t *testing.T) {
	srv, err := ServeOperator("127.0.0.1:0", bareOperator(NewRegistry()))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over ServeOperator = %d", resp.StatusCode)
	}
}
