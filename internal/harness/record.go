package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"pert/internal/experiments"
)

// DecodeRunRecord parses a cached record.json blob strictly. Cache replay
// and fsck both route through it: anything a crash, a partial write, or a
// hand edit could plausibly produce — truncation, trailing garbage, NaN/Inf
// smuggled through a lenient reader, a missing identity — yields an error so
// the cell is evicted and recomputed instead of poisoning a report. It must
// never panic; FuzzDecodeRunRecord pins that.
func DecodeRunRecord(blob []byte) (RunRecord, error) {
	var rec RunRecord
	dec := json.NewDecoder(bytes.NewReader(blob))
	if err := dec.Decode(&rec); err != nil {
		return RunRecord{}, fmt.Errorf("decode record: %w", err)
	}
	// A committed record is exactly one JSON object; trailing bytes mean a
	// torn write that happened to leave a parsable prefix.
	if dec.More() {
		return RunRecord{}, errors.New("decode record: trailing data after JSON object")
	}
	if err := checkRecord(&rec); err != nil {
		return RunRecord{}, err
	}
	if rec.Tables == nil {
		rec.Tables = []*experiments.Table{}
	}
	return rec, nil
}

// ValidateRecord adapts DecodeRunRecord to the cache.Store.Fsck signature.
func ValidateRecord(blob []byte) error {
	_, err := DecodeRunRecord(blob)
	return err
}

func checkRecord(rec *RunRecord) error {
	if rec.ID == "" {
		return errors.New("record has no experiment id")
	}
	switch rec.Status {
	case StatusOK, StatusError, StatusTimeout, StatusStalled, StatusCrashed, StatusCanceled:
	case "":
		// Every committed record carries a status; one without was edited
		// by hand or written by other code, and must not replay as healthy.
		return errors.New("record has no status")
	default:
		return fmt.Errorf("record has unknown status %q", rec.Status)
	}
	if rec.Attempts < 0 {
		return fmt.Errorf("record has negative attempts %d", rec.Attempts)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"wall_seconds", rec.WallSeconds},
		{"events_per_second", rec.EventsPerSecond},
		{"sim_seconds", rec.SimSeconds},
		{"allocs_per_event", rec.AllocsPerEvent},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("record field %s is not finite", f.name)
		}
		if f.v < 0 {
			return fmt.Errorf("record field %s is negative", f.name)
		}
	}
	for _, t := range rec.Tables {
		if t == nil {
			return errors.New("record contains a null table")
		}
	}
	return nil
}
