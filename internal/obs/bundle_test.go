package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"io"
	"runtime"
	"testing"
	"time"
)

// archive gzips the tar stream write writes.
func archive(t testing.TB, write func(tw *tar.Writer)) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	write(tw)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// writeEntry writes one archive entry of data.
func writeEntry(t testing.TB, tw *tar.Writer, name string, data []byte) {
	t.Helper()
	if err := tw.WriteHeader(&tar.Header{Name: name, Mode: 0o644, Size: int64(len(data))}); err != nil {
		t.Fatal(err)
	}
	if _, err := tw.Write(data); err != nil {
		t.Fatal(err)
	}
}

// manifestJSON is a bundle manifest ReadBundleFrom accepts.
func manifestJSON(t testing.TB) []byte {
	t.Helper()
	data, err := json.Marshal(BundleManifest{Schema: BundleSchema})
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReadBundleMeasuresProfilesUnread: a 261 KB bundle holding a
// zero-filled 256 MiB pprof/heap reads with the profile's size taken
// from its header, allocating under 4 MiB. Reading the profile whole,
// as the reader once did, allocated 1.4 GB.
func TestReadBundleMeasuresProfilesUnread(t *testing.T) {
	const heap = 256 << 20
	bundle := archive(t, func(tw *tar.Writer) {
		writeEntry(t, tw, "manifest.json", manifestJSON(t))
		if err := tw.WriteHeader(&tar.Header{Name: "pprof/heap", Mode: 0o644, Size: heap}); err != nil {
			t.Fatal(err)
		}
		zeros := make([]byte, 1<<20)
		for range heap / len(zeros) {
			if _, err := tw.Write(zeros); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("the bundle is %d bytes", len(bundle))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b, err := ReadBundleFrom(bytes.NewReader(bundle))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("ReadBundleFrom: %v", err)
	}
	if got := b.Profiles["heap"]; got != heap {
		t.Errorf("Profiles[heap] = %d, want %d", got, heap)
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("reading it allocated %d bytes", alloc)
	if alloc >= 4<<20 {
		t.Errorf("reading the bundle allocated %d bytes, want under 4 MiB", alloc)
	}
}

// TestReadBundleEntryCap: a parsed entry over the cap fails the read
// with ErrBundleEntryTooLarge before any of it is read, one at the cap
// reads, and an unknown entry is skipped whatever its size.
func TestReadBundleEntryCap(t *testing.T) {
	// A header claiming one byte over the real cap, and no data after it.
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	writeEntry(t, tw, "manifest.json", manifestJSON(t))
	if err := tw.WriteHeader(&tar.Header{Name: "ledger.jsonl", Mode: 0o644, Size: maxBundleEntry + 1}); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundleFrom(&buf); !errors.Is(err, ErrBundleEntryTooLarge) {
		t.Errorf("a %d-byte ledger.jsonl: error %v, want ErrBundleEntryTooLarge", maxBundleEntry+1, err)
	}

	const limit = 1 << 10
	line := append(bytes.Repeat([]byte(" "), limit-len(`{"day":1}`)-1), `{"day":1}`+"\n"...)
	for _, tc := range []struct {
		name    string
		entry   string
		data    []byte
		tooLong bool
	}{
		{"at the cap", "ledger.jsonl", line, false},
		{"over the cap", "ledger.jsonl", append(line, ' '), true},
		{"unknown entry over the cap", "notes.txt", bytes.Repeat(line, 4), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bundle := archive(t, func(tw *tar.Writer) {
				writeEntry(t, tw, "manifest.json", manifestJSON(t))
				writeEntry(t, tw, tc.entry, tc.data)
			})
			_, err := readBundle(bytes.NewReader(bundle), limit)
			if got := errors.Is(err, ErrBundleEntryTooLarge); got != tc.tooLong || (!tc.tooLong && err != nil) {
				t.Errorf("a %d-byte %s at a %d-byte cap: error %v", len(tc.data), tc.entry, limit, err)
			}
		})
	}
}

// TestReadBundleRejectsRepeatedEntry: a parsed entry appears once in a
// bundle writeBundle writes, and a second copy fails the read, so an
// archive cannot pile up ledger lines past the per-entry cap by
// repeating ledger.jsonl. Unparsed entries may repeat.
func TestReadBundleRejectsRepeatedEntry(t *testing.T) {
	for _, tc := range []struct {
		entry   string
		wantErr bool
	}{
		{"ledger.jsonl", true},
		{"manifest.json", true},
		{"pprof/heap.pprof", false},
		{"notes.txt", false},
	} {
		data := []byte(`{"day":1}` + "\n")
		if tc.entry == "manifest.json" {
			data = manifestJSON(t)
		}
		bundle := archive(t, func(tw *tar.Writer) {
			if tc.entry != "manifest.json" {
				writeEntry(t, tw, "manifest.json", manifestJSON(t))
			}
			writeEntry(t, tw, tc.entry, data)
			writeEntry(t, tw, tc.entry, data)
		})
		_, err := ReadBundleFrom(bytes.NewReader(bundle))
		if got := err != nil; got != tc.wantErr {
			t.Errorf("a bundle repeating %s: error %v, want an error: %t", tc.entry, err, tc.wantErr)
		}
	}
}

// seedBundle is a bundle writeBundle writes from an operator plane with
// every section, a recorder and a tracer.
func seedBundle(t testing.TB) []byte {
	t.Helper()
	reg := NewRegistry()
	reg.Counter(MetricNetDaysTotal).Add(2)
	eng, err := NewSLOEngine(reg, DefaultObjectives())
	if err != nil {
		t.Fatal(err)
	}
	op := NewOperator(reg)
	op.Status = tracedStatus{}
	op.Ledger = fakeLedger{lines: []string{`{"day":1}`, `{"day":2}`}}
	op.Federation = NewFederation(reg)
	op.SLO = eng
	rec := NewRecorder()
	rec.Enable()
	rec.Record(Event{TimeNS: 1, Kind: EventFault, Shard: 1, Action: "drop", N: 30})
	tr := &Tracer{}
	tr.Enable()
	tr.StartTrace("t-bbbb", "netproto.day").End()
	var buf bytes.Buffer
	src := BundleSources{Operator: op, Recorder: rec, Tracer: tr, Config: map[string]string{"codec": "binary"}}
	if err := writeBundle(&buf, "seed", time.Unix(0, 0), 0, src); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// overCap names the first entry of archive that the bundle reader
// parses and whose header declares more than limit bytes, reading the
// archive as far as it is well formed.
func overCap(archive []byte, limit int64) string {
	gz, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		return ""
	}
	tr := tar.NewReader(gz)
	for {
		hdr, err := tr.Next()
		if err != nil {
			return ""
		}
		if _, parsed := bundleEntries[hdr.Name]; parsed && hdr.Size > limit {
			return hdr.Name
		}
	}
}

// FuzzReadBundle feeds arbitrary archives to the bundle reader at an
// 8 KiB entry cap: above the seed's entries (its slo.json is 4 KB), so
// the seed reads, and low enough that fuzzed entries reach it. The seeds
// are a bundle writeBundle wrote and its tar stream; input that is not a
// gzip stream is taken as a tar stream and gzipped first, so mutations
// reach the archive's entries. The reader must never panic, must never
// accept a bundle with a parsed entry over the cap, and must refuse one
// with ErrBundleEntryTooLarge only for such an entry.
//
// The seeds are kilobytes long, and the fuzzer's minimizer spends its
// whole 60 s default on each new input of that size, so short runs pass
// -fuzzminimizetime 1x (make chaos).
func FuzzReadBundle(f *testing.F) {
	const limit = 8 << 10
	seed := seedBundle(f)
	if _, err := readBundle(bytes.NewReader(seed), limit); err != nil {
		f.Fatalf("the seed bundle: %v", err)
	}
	f.Add(seed)
	gz, err := gzip.NewReader(bytes.NewReader(seed))
	if err != nil {
		f.Fatal(err)
	}
	bare, err := io.ReadAll(gz)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(bare)
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.NoCompression)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if !bytes.HasPrefix(data, []byte{0x1f, 0x8b}) {
			buf.Reset()
			zw.Reset(&buf)
			zw.Write(data) // into buf: cannot fail
			zw.Close()
			data = buf.Bytes()
		}
		_, err := readBundle(bytes.NewReader(data), limit)
		over := overCap(data, limit)
		if err == nil && over != "" {
			t.Fatalf("accepted a bundle whose %s is over the %d-byte cap", over, limit)
		}
		if errors.Is(err, ErrBundleEntryTooLarge) && over == "" {
			t.Fatalf("refused a bundle with no parsed entry over the cap: %v", err)
		}
	})
}
