package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
)

// ReadJSONL loads a JSONL stream of T values, in order: the one
// crash-tolerant reader behind the audit ledger, span traces and
// flight-recorder dumps. Blank lines are skipped. A corrupt or
// truncated final line — the signature of a crash during append — is
// skipped so the intact history stays readable, but corruption
// followed by another line is an error. A line may be of any length:
// one ledger line holds a whole neighbourhood's day. Errors name the
// stream (e.g. "obs: trace") and the line.
func ReadJSONL[T any](r io.Reader, stream string) ([]T, error) {
	var out []T
	var pending error
	scanner := bufio.NewScanner(r)
	scanner.Buffer(make([]byte, 0, 64*1024), math.MaxInt)
	line := 0
	for scanner.Scan() {
		line++
		if len(scanner.Bytes()) == 0 {
			continue
		}
		if pending != nil {
			return nil, pending
		}
		var v T
		if err := json.Unmarshal(scanner.Bytes(), &v); err != nil {
			pending = fmt.Errorf("%s line %d: %w", stream, line, err)
			continue
		}
		out = append(out, v)
	}
	if err := scanner.Err(); err != nil {
		return nil, fmt.Errorf("%s: %w", stream, err)
	}
	return out, nil
}

// writeJSONL writes vs as one JSON object per line, the format
// ReadJSONL reads back.
func writeJSONL[T any](w io.Writer, vs []T) error {
	enc := json.NewEncoder(w)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}
