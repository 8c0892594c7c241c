package netproto

import (
	"context"
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"math"
	"math/big"
	"net"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/mechanism"
	"enki/internal/sched"
)

// selfSignedTLS builds an in-memory self-signed certificate for the
// loopback deployment test.
func selfSignedTLS(t *testing.T) (serverCfg, clientCfg *tls.Config) {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	template := x509.Certificate{
		SerialNumber:          big.NewInt(1),
		Subject:               pkix.Name{CommonName: "enki-center"},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(time.Hour),
		KeyUsage:              x509.KeyUsageKeyEncipherment | x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		IPAddresses:           []net.IP{net.ParseIP("127.0.0.1")},
		IsCA:                  true,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, &template, &template, &key.PublicKey, key)
	if err != nil {
		t.Fatal(err)
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	pool := x509.NewCertPool()
	pool.AddCert(cert)

	serverCfg = &tls.Config{
		Certificates: []tls.Certificate{{
			Certificate: [][]byte{der},
			PrivateKey:  key,
		}},
		MinVersion: tls.VersionTLS13,
	}
	clientCfg = &tls.Config{
		RootCAs:    pool,
		ServerName: "127.0.0.1",
		MinVersion: tls.VersionTLS13,
	}
	return serverCfg, clientCfg
}

// TestDayCycleOverTLS runs the full Figure 1 protocol over TLS 1.3
// using the bring-your-own-transport constructors.
func TestDayCycleOverTLS(t *testing.T) {
	serverCfg, clientCfg := selfSignedTLS(t)

	ln, err := tls.Listen("tcp", "127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	center, err := StartCenterListener(ln, WithScheduler(&sched.Greedy{Pricer: quad, Rating: 2}),
		WithPricer(quad), WithPhaseDeadline(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	types := []core.Type{
		{True: core.MustPreference(18, 22, 2), ValuationFactor: 5},
		{True: core.MustPreference(17, 23, 2), ValuationFactor: 4},
		{True: core.MustPreference(19, 24, 3), ValuationFactor: 6},
	}
	agents := make([]*Agent, len(types))
	for i, typ := range types {
		conn, err := tls.Dial("tcp", center.Addr(), clientCfg)
		if err != nil {
			t.Fatal(err)
		}
		a, err := NewAgent(conn, core.HouseholdID(i), &Truthful{Type: typ})
		if err != nil {
			conn.Close()
			t.Fatal(err)
		}
		agents[i] = a
		defer a.Close()
	}
	if err := waitForAgents(center, len(types), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	for day := 1; day <= 2; day++ {
		record, err := center.RunDayContext(context.Background(), day)
		if err != nil {
			t.Fatalf("day %d: %v", day, err)
		}
		var revenue float64
		for _, p := range record.Payments {
			revenue += p
		}
		if math.Abs(revenue-mechanism.DefaultXi*record.Cost) > 1e-6 {
			t.Errorf("day %d over TLS: revenue %g != ξκ %g", day, revenue, mechanism.DefaultXi*record.Cost)
		}
	}
}

// TestTLSRejectsPlaintextClient: a plaintext client cannot register on
// a TLS listener.
func TestTLSRejectsPlaintextClient(t *testing.T) {
	serverCfg, _ := selfSignedTLS(t)
	ln, err := tls.Listen("tcp", "127.0.0.1:0", serverCfg)
	if err != nil {
		t.Fatal(err)
	}
	center, err := StartCenterListener(ln, WithScheduler(&sched.Greedy{Pricer: quad, Rating: 2}), WithPricer(quad))
	if err != nil {
		t.Fatal(err)
	}
	defer center.Close()

	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	if _, err := Connect(context.Background(), center.Addr(), 0, &Truthful{Type: typ}); err == nil {
		t.Error("plaintext Dial against a TLS center should fail")
	}
}
