package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"enki/internal/mechanism"
)

// ledgerSink is the benchmark-owned audit-ledger writer. The program's
// Journal writes every ledger line through it into a file on disk, as
// enkid -obs.ledger appends to its ledger file. The sink counts the
// bytes, lines and time spent in the file writes, and starts one file
// per day: the files of sampled days are kept for the audit and the
// rest are deleted between days, so a long run does not fill the disk.
type ledgerSink struct {
	dir string

	mu       sync.Mutex
	f        *os.File
	lines    int
	bytes    int64
	writeNS  int64
	capture  bool     // keep a copy of each line (traced days)
	captured [][]byte // the day's lines, newline stripped
	kept     map[int]ledgerFile
}

// ledgerFile is one kept day file.
type ledgerFile struct {
	path  string
	lines int
}

// ledgerDay is what one day wrote.
type ledgerDay struct {
	lines    int
	bytes    int64
	writeNS  int64
	captured [][]byte
}

const openDayFile = "current.jsonl"

func newLedgerSink(dir string) (*ledgerSink, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, fmt.Errorf("ledger dir: %w", err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger dir: %w", err)
	}
	s := &ledgerSink{dir: dir, kept: make(map[int]ledgerFile)}
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *ledgerSink) open() error {
	f, err := os.OpenFile(filepath.Join(s.dir, openDayFile), os.O_CREATE|os.O_WRONLY|os.O_APPEND|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("open ledger file: %w", err)
	}
	s.f = f
	return nil
}

// Write implements io.Writer; the Journal calls it once per line.
func (s *ledgerSink) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t0 := time.Now()
	n, err := s.f.Write(p)
	s.writeNS += time.Since(t0).Nanoseconds()
	s.bytes += int64(n)
	s.lines++
	if s.capture {
		s.captured = append(s.captured, bytes.TrimSuffix(append([]byte(nil), p...), []byte("\n")))
	}
	return n, err
}

// setCapture turns line capture on or off for the next day.
func (s *ledgerSink) setCapture(on bool) {
	s.mu.Lock()
	s.capture = on
	s.mu.Unlock()
}

// endDay closes the day's file, keeping it as day's audit sample when
// keep is set, opens the next day's file, and returns the day's totals.
func (s *ledgerSink) endDay(day int, keep bool) (ledgerDay, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := ledgerDay{lines: s.lines, bytes: s.bytes, writeNS: s.writeNS, captured: s.captured}
	s.lines, s.bytes, s.writeNS, s.captured = 0, 0, 0, nil
	if err := s.f.Close(); err != nil {
		return out, fmt.Errorf("close ledger file: %w", err)
	}
	cur := filepath.Join(s.dir, openDayFile)
	if keep {
		path := filepath.Join(s.dir, fmt.Sprintf("day-%05d.jsonl", day))
		if err := os.Rename(cur, path); err != nil {
			return out, fmt.Errorf("keep ledger day %d: %w", day, err)
		}
		s.kept[day] = ledgerFile{path: path, lines: out.lines}
	} else if err := os.Remove(cur); err != nil {
		return out, fmt.Errorf("drop ledger day %d: %w", day, err)
	}
	return out, s.open()
}

// close closes the open day file.
func (s *ledgerSink) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.f.Close()
}

// keptBytes returns the bytes of a kept day file.
func (s *ledgerSink) keptBytes(day int) ([]byte, error) {
	lf, ok := s.kept[day]
	if !ok {
		return nil, fmt.Errorf("ledger day %d was not kept", day)
	}
	return os.ReadFile(lf.path)
}

// auditDay reads a kept day file back with mechanism.ReadLedger and
// audits every entry: the file must hold as many readable entries as
// lines were written (ReadLedger forgives a corrupt final line), each
// for the right day, each with a clean Audit.
func auditDay(data []byte, day, lines int) error {
	entries, err := mechanism.ReadLedger(bytes.NewReader(data))
	if err != nil {
		return err
	}
	if len(entries) != lines {
		return fmt.Errorf("%d readable entries, %d lines written", len(entries), lines)
	}
	for i, e := range entries {
		if e.Day != day {
			return fmt.Errorf("entry %d is for day %d", i, e.Day)
		}
		if bad := e.Audit(); len(bad) > 0 {
			return fmt.Errorf("entry %d (%s): %s", i, e.TraceID, bad[0])
		}
	}
	return nil
}

// auditKept audits every kept day of the sink.
func (s *ledgerSink) auditKept(workload string) error {
	days := make([]int, 0, len(s.kept))
	for day := range s.kept {
		days = append(days, day)
	}
	sort.Ints(days)
	for _, day := range days {
		lf := s.kept[day]
		data, err := os.ReadFile(lf.path)
		if err != nil {
			return fmt.Errorf("read ledger day %d: %w", day, err)
		}
		if err := auditDay(data, day, lf.lines); err != nil {
			return &checkError{workload: workload, day: day, check: "ledger-audit", detail: err.Error()}
		}
	}
	return nil
}
