package netproto

import (
	"bytes"
	"context"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"enki/internal/core"
	"enki/internal/dist"
)

// TestNoGoroutineLeaks asserts the Close contract of the style guide:
// every goroutine the center and agents spawn exits after Close.
func TestNoGoroutineLeaks(t *testing.T) {
	before := runtime.NumGoroutine()

	for round := 0; round < 3; round++ {
		c := newTestCenter(t)
		agents := make([]*Agent, 4)
		for i := range agents {
			typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
			a, err := Connect(context.Background(), c.Addr(), core.HouseholdID(i), &Truthful{Type: typ})
			if err != nil {
				t.Fatal(err)
			}
			agents[i] = a
		}
		if err := waitForAgents(c, len(agents), 5*time.Second); err != nil {
			t.Fatal(err)
		}
		if _, err := c.RunDayContext(context.Background(), 1); err != nil {
			t.Fatal(err)
		}
		for _, a := range agents {
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Goroutine counts settle asynchronously; poll briefly.
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Errorf("goroutines: %d before, %d after close", before, runtime.NumGoroutine())
}

// TestCenterCloseClosesRegisteringConnections: Close waits for every
// connection's goroutine, so it must also close a connection that has
// not sent its hello yet.
func TestCenterCloseClosesRegisteringConnections(t *testing.T) {
	c := newTestCenter(t)
	silent, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	// The center accepts in dial order, so once a later agent has
	// registered, the silent connection is waiting for its hello.
	typ := core.Type{True: core.MustPreference(18, 22, 2), ValuationFactor: 5}
	a, err := Connect(context.Background(), c.Addr(), 1, &Truthful{Type: typ})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(3 * time.Second):
		silent.Close() // let Close return
		<-closed
		t.Fatal("Close still blocked 3 s on a connection that never sent a hello")
	}
}

// TestCenterDropsHelloLessConnection: a connection that never sends its
// hello gets one phase deadline to do so; then the center closes it and
// stops tracking it, instead of holding its goroutine until Close.
func TestCenterDropsHelloLessConnection(t *testing.T) {
	c := newTestCenter(t, WithPhaseDeadline(100*time.Millisecond))
	silent, err := net.Dial("tcp", c.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer silent.Close()
	silent.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := silent.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("silent connection read %v within 2 s, want EOF from the center closing it", err)
	}
	deadline := time.Now().Add(time.Second)
	for {
		c.mu.Lock()
		tracked := len(c.conns)
		c.mu.Unlock()
		if tracked == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("center still tracks %d connections after dropping the silent one", tracked)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestReadBatchNeverPanicsOnGarbage feeds random bytes into the frame
// reader: it must return errors, never panic, and never allocate
// absurd buffers.
func TestReadBatchNeverPanicsOnGarbage(t *testing.T) {
	rng := dist.New(2026)
	for trial := 0; trial < 2000; trial++ {
		size := rng.Intn(64)
		raw := make([]byte, size)
		for i := range raw {
			raw[i] = byte(rng.Intn(256))
		}
		// Must not panic; errors are expected and fine.
		_, _ = ReadBatch(bytes.NewReader(raw))
	}
}

// TestReadBatchTruncatedPayload: a frame header promising more bytes
// than the stream holds must error cleanly.
func TestReadBatchTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBatch(&buf, jsonCodec{}, []*Message{{Kind: KindHello, ID: 1}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for cut := 1; cut < len(full); cut++ {
		if _, err := ReadBatch(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes should error", cut)
		}
	}
}
