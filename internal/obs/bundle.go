package obs

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

// BundleSchema versions the debug-bundle manifest; enkidebug refuses
// schemas it does not know.
const BundleSchema = 1

// BundleSources are the live surfaces a debug bundle captures. Nil
// fields are simply absent from the bundle — a bare agent bundles only
// its recorder ring and runtime profiles, a cluster center bundles the
// whole operator plane.
type BundleSources struct {
	Operator *Operator         // registry, status, ledger, SLO, federation
	Recorder *Recorder         // flight-recorder ring → events.jsonl
	Tracer   *Tracer           // span ring → spans.jsonl (non-destructive)
	Config   map[string]string // effective process configuration
}

// registry returns the snapshot source (the operator's registry when
// wired, the process default otherwise).
func (s BundleSources) registry() *Registry {
	if s.Operator != nil && s.Operator.Registry != nil {
		return s.Operator.Registry
	}
	return Default()
}

// BundleManifest is the bundle's self-description (manifest.json, the
// first archive entry): why and when it was captured, the build that
// captured it, the effective configuration, the incident coordinates
// the trigger implicated, and the archive's own table of contents.
type BundleManifest struct {
	Schema         int               `json:"schema"`
	Reason         string            `json:"reason"`
	CapturedUnixNS int64             `json:"capturedUnixNs"`
	GoVersion      string            `json:"goVersion"`
	GOOS           string            `json:"goos"`
	GOARCH         string            `json:"goarch"`
	PID            int               `json:"pid"`
	Hostname       string            `json:"hostname,omitempty"`
	Build          map[string]string `json:"build,omitempty"`
	Config         map[string]string `json:"config,omitempty"`

	// Incident coordinates: the day being settled at capture and the
	// shards (with their trace IDs) that were failed or degraded.
	ImplicatedDay    int      `json:"implicatedDay"`
	ImplicatedShards []int    `json:"implicatedShards,omitempty"`
	ImplicatedTraces []string `json:"implicatedTraces,omitempty"`

	Files []string `json:"files"`
	// Notes records non-fatal capture problems (a busy CPU profiler,
	// an unreadable hostname) so a partial bundle explains itself.
	Notes []string `json:"notes,omitempty"`
}

// bundleStatus is the status.json payload: the day view plus the
// per-shard table, captured together.
type bundleStatus struct {
	Day    DayStatus     `json:"day"`
	Shards []ShardStatus `json:"shards"`
}

type bundleFile struct {
	name string
	data []byte
}

// writeBundle captures every wired source and writes the tar.gz
// archive to w. cpuProfile > 0 adds a blocking CPU profile of that
// length (the trigger holds its lock for the duration).
func writeBundle(w io.Writer, reason string, now time.Time, cpuProfile time.Duration, src BundleSources) error {
	manifest := BundleManifest{
		Schema:         BundleSchema,
		Reason:         reason,
		CapturedUnixNS: now.UnixNano(),
		GoVersion:      runtime.Version(),
		GOOS:           runtime.GOOS,
		GOARCH:         runtime.GOARCH,
		PID:            os.Getpid(),
		Config:         src.Config,
		ImplicatedDay:  -1,
	}
	if host, err := os.Hostname(); err == nil {
		manifest.Hostname = host
	} else {
		manifest.Notes = append(manifest.Notes, "hostname: "+err.Error())
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		manifest.Build = map[string]string{"path": info.Path}
		for _, kv := range info.Settings {
			switch kv.Key {
			case "vcs.revision", "vcs.time", "vcs.modified", "GOFLAGS":
				manifest.Build[kv.Key] = kv.Value
			}
		}
	}

	var files []bundleFile
	add := func(name string, data []byte, err error) {
		if err != nil {
			manifest.Notes = append(manifest.Notes, name+": "+err.Error())
			return
		}
		files = append(files, bundleFile{name: name, data: data})
	}
	addJSON := func(name string, v any) {
		data, err := json.MarshalIndent(v, "", "  ")
		add(name, data, err)
	}

	if src.Recorder != nil {
		var buf bytes.Buffer
		if err := src.Recorder.WriteJSONL(&buf); err != nil {
			manifest.Notes = append(manifest.Notes, "events.jsonl: "+err.Error())
		} else {
			files = append(files, bundleFile{name: "events.jsonl", data: buf.Bytes()})
		}
	}
	addJSON("metrics.json", src.registry().Snapshot())

	implicated := map[string]bool{}
	op := src.Operator
	if op != nil && op.Status != nil {
		st := bundleStatus{Day: op.Status.DayStatus(), Shards: op.Status.ShardStatuses()}
		if st.Shards == nil {
			st.Shards = []ShardStatus{}
		}
		manifest.ImplicatedDay = st.Day.Day
		for _, sh := range st.Shards {
			if sh.Healthy && sh.Err == "" && sh.Absent == 0 && sh.Substituted == 0 {
				continue
			}
			manifest.ImplicatedShards = append(manifest.ImplicatedShards, sh.Shard)
			if sh.TraceID != "" && !implicated[sh.TraceID] {
				implicated[sh.TraceID] = true
				manifest.ImplicatedTraces = append(manifest.ImplicatedTraces, sh.TraceID)
			}
		}
		addJSON("status.json", st)
	}
	if op != nil && op.SLO != nil {
		statuses := op.SampleSLO(now)
		addJSON("slo.json", SLOReport{
			Objectives: statuses,
			Windows:    op.SLO.Windows(),
			Spec:       op.SLO.Objectives(),
		})
	}
	if op != nil && op.Federation != nil {
		addJSON("federation.json", op.Federation.Snapshot())
	}
	if op != nil && op.Ledger != nil {
		var buf bytes.Buffer
		for _, line := range op.Ledger.LedgerTail(MaxLedgerTail) {
			buf.Write(line)
			buf.WriteByte('\n')
		}
		files = append(files, bundleFile{name: "ledger.jsonl", data: buf.Bytes()})
	}
	if src.Tracer != nil {
		spans := src.Tracer.Snapshot()
		if len(implicated) > 0 {
			kept := spans[:0]
			for _, sp := range spans {
				if implicated[sp.TraceID] {
					kept = append(kept, sp)
				}
			}
			spans = kept
		}
		sort.SliceStable(spans, func(i, j int) bool {
			a, b := spans[i].Identity(), spans[j].Identity()
			if a != b {
				return a < b
			}
			return spans[i].StartNS < spans[j].StartNS
		})
		var buf bytes.Buffer
		enc := json.NewEncoder(&buf)
		var encErr error
		for _, sp := range spans {
			if err := enc.Encode(sp); err != nil {
				encErr = err
				break
			}
		}
		add("spans.jsonl", buf.Bytes(), encErr)
	}

	for _, name := range []string{"heap", "goroutine"} {
		p := pprof.Lookup(name)
		if p == nil {
			continue
		}
		var buf bytes.Buffer
		if err := p.WriteTo(&buf, 0); err != nil {
			manifest.Notes = append(manifest.Notes, "pprof/"+name+".pprof: "+err.Error())
			continue
		}
		files = append(files, bundleFile{name: "pprof/" + name + ".pprof", data: buf.Bytes()})
	}
	if cpuProfile > 0 {
		var buf bytes.Buffer
		if err := pprof.StartCPUProfile(&buf); err != nil {
			// Another profiler (e.g. /debug/pprof/profile) is running;
			// the bundle stays useful without the CPU sample.
			manifest.Notes = append(manifest.Notes, "pprof/cpu.pprof: "+err.Error())
		} else {
			time.Sleep(cpuProfile)
			pprof.StopCPUProfile()
			files = append(files, bundleFile{name: "pprof/cpu.pprof", data: buf.Bytes()})
		}
	}

	manifest.Files = make([]string, 0, len(files)+1)
	manifest.Files = append(manifest.Files, "manifest.json")
	for _, f := range files {
		manifest.Files = append(manifest.Files, f.name)
	}

	manifestData, err := json.MarshalIndent(manifest, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: bundle manifest: %w", err)
	}
	gz := gzip.NewWriter(w)
	tw := tar.NewWriter(gz)
	writeEntry := func(name string, data []byte) error {
		hdr := &tar.Header{
			Name:    name,
			Mode:    0o644,
			Size:    int64(len(data)),
			ModTime: now,
		}
		if err := tw.WriteHeader(hdr); err != nil {
			return err
		}
		_, err := tw.Write(data)
		return err
	}
	if err := writeEntry("manifest.json", manifestData); err != nil {
		return fmt.Errorf("obs: bundle write: %w", err)
	}
	for _, f := range files {
		if err := writeEntry(f.name, f.data); err != nil {
			return fmt.Errorf("obs: bundle write %s: %w", f.name, err)
		}
	}
	if err := tw.Close(); err != nil {
		return fmt.Errorf("obs: bundle close: %w", err)
	}
	if err := gz.Close(); err != nil {
		return fmt.Errorf("obs: bundle close: %w", err)
	}
	return nil
}

// Bundle is a parsed debug bundle — what enkidebug analyzes offline.
// Sections absent from the archive stay nil/empty.
type Bundle struct {
	Manifest   BundleManifest
	Events     []Event
	Metrics    *Snapshot
	Day        *DayStatus
	Shards     []ShardStatus
	SLO        *SLOReport
	Federation *FederatedSnapshot
	Ledger     []json.RawMessage
	Spans      []Span
	Profiles   map[string]int // pprof entry name → size in bytes
}

// ReadBundle opens and parses a debug-bundle archive from disk.
func ReadBundle(path string) (*Bundle, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadBundleFrom(f)
}

// maxBundleEntry caps each archive entry ReadBundleFrom parses: 128 MiB.
// The largest entry writeBundle writes is the ledger tail, MaxLedgerTail
// lines of one neighbourhood day each at about 325 B per household: 81 MB
// for the 977-household neighbourhoods of a million households in 1,024
// shards, 65 MB for 100,000 households in 128. The cap admits
// neighbourhoods of up to about 1,600 households; the recorder's and the
// tracer's default rings (events.jsonl, spans.jsonl) and the other JSON
// entries write less.
const maxBundleEntry = 128 << 20

// ErrBundleEntryTooLarge is the error ReadBundleFrom returns, wrapped
// with the entry's name, for a parsed entry over its size cap.
var ErrBundleEntryTooLarge = errors.New("obs: bundle entry over the size cap")

// bundleEntries parses each archive entry ReadBundleFrom reads whole
// into the bundle. Other entries are skipped unread.
var bundleEntries = map[string]func(b *Bundle, data []byte) error{
	"manifest.json": func(b *Bundle, data []byte) error {
		if err := json.Unmarshal(data, &b.Manifest); err != nil {
			return fmt.Errorf("obs: bundle manifest: %w", err)
		}
		return nil
	},
	"events.jsonl": func(b *Bundle, data []byte) (err error) {
		b.Events, err = ReadEvents(bytes.NewReader(data))
		return err
	},
	"metrics.json": func(b *Bundle, data []byte) error {
		var snap Snapshot
		if err := json.Unmarshal(data, &snap); err != nil {
			return fmt.Errorf("obs: bundle metrics: %w", err)
		}
		b.Metrics = &snap
		return nil
	},
	"status.json": func(b *Bundle, data []byte) error {
		var st bundleStatus
		if err := json.Unmarshal(data, &st); err != nil {
			return fmt.Errorf("obs: bundle status: %w", err)
		}
		b.Day = &st.Day
		b.Shards = st.Shards
		return nil
	},
	"slo.json": func(b *Bundle, data []byte) error {
		var rep SLOReport
		if err := json.Unmarshal(data, &rep); err != nil {
			return fmt.Errorf("obs: bundle slo: %w", err)
		}
		b.SLO = &rep
		return nil
	},
	"federation.json": func(b *Bundle, data []byte) error {
		var fed FederatedSnapshot
		if err := json.Unmarshal(data, &fed); err != nil {
			return fmt.Errorf("obs: bundle federation: %w", err)
		}
		b.Federation = &fed
		return nil
	},
	"ledger.jsonl": func(b *Bundle, data []byte) error {
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			b.Ledger = append(b.Ledger, json.RawMessage(line))
		}
		return nil
	},
	"spans.jsonl": func(b *Bundle, data []byte) (err error) {
		b.Spans, err = ReadSpans(bytes.NewReader(data))
		return err
	},
}

// ReadBundleFrom parses a debug-bundle tar.gz stream. It reads the
// entries it parses (bundleEntries) whole, each through a size cap
// (maxBundleEntry; over it, ErrBundleEntryTooLarge) and at most once, so
// it reads at most len(bundleEntries) caps in all; takes each pprof/*
// entry's size from its header without reading it; and skips every
// other entry unread.
func ReadBundleFrom(r io.Reader) (*Bundle, error) {
	return readBundle(r, maxBundleEntry)
}

// readBundle is ReadBundleFrom with the per-entry cap as a parameter.
func readBundle(r io.Reader, maxEntry int64) (*Bundle, error) {
	gz, err := gzip.NewReader(r)
	if err != nil {
		return nil, fmt.Errorf("obs: bundle gzip: %w", err)
	}
	defer gz.Close()
	tr := tar.NewReader(gz)
	b := &Bundle{Profiles: map[string]int{}}
	parsed := make(map[string]bool, len(bundleEntries))
	for {
		hdr, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("obs: bundle tar: %w", err)
		}
		if name, ok := strings.CutPrefix(hdr.Name, "pprof/"); ok {
			b.Profiles[name] = int(hdr.Size)
			continue
		}
		parse, ok := bundleEntries[hdr.Name]
		if !ok {
			continue
		}
		if parsed[hdr.Name] {
			return nil, fmt.Errorf("obs: bundle repeats %s", hdr.Name)
		}
		parsed[hdr.Name] = true
		if hdr.Size > maxEntry {
			return nil, fmt.Errorf("obs: bundle read %s (%d bytes, cap %d): %w", hdr.Name, hdr.Size, maxEntry, ErrBundleEntryTooLarge)
		}
		data, err := io.ReadAll(tr) // the tar reader yields hdr.Size bytes at most
		if err != nil {
			return nil, fmt.Errorf("obs: bundle read %s: %w", hdr.Name, err)
		}
		if err := parse(b, data); err != nil {
			return nil, err
		}
	}
	if !parsed["manifest.json"] {
		return nil, fmt.Errorf("obs: bundle has no manifest.json")
	}
	if b.Manifest.Schema != BundleSchema {
		return nil, fmt.Errorf("obs: bundle schema %d, want %d", b.Manifest.Schema, BundleSchema)
	}
	return b, nil
}
