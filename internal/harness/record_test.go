package harness

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodeRunRecord(t *testing.T) {
	valid := `{"id":"fig6","title":"t","scale":"quick","status":"ok","wall_seconds":1.5,` +
		`"sim_events":10,"events_per_second":6.6,"sim_seconds":2,"mallocs":3,` +
		`"allocs_per_event":0.3,"attempts":2,"tables":[]}`
	cases := []struct {
		name    string
		blob    string
		wantErr string
	}{
		{"valid", valid, ""},
		{"legacy no status", `{"id":"fig6","tables":[]}`, "no status"},
		{"null tables normalized", `{"id":"fig6","status":"ok"}`, ""},
		{"empty", ``, "decode record"},
		{"truncated", valid[:len(valid)/2], "decode record"},
		{"trailing garbage", valid + `{"id":"evil"}`, "trailing data"},
		{"not an object", `[1,2,3]`, "decode record"},
		{"missing id", `{"status":"ok","tables":[]}`, "no experiment id"},
		{"unknown status", `{"id":"fig6","status":"mostly-ok","tables":[]}`, "unknown status"},
		{"negative attempts", `{"id":"fig6","status":"ok","attempts":-3,"tables":[]}`, "negative attempts"},
		{"negative wall", `{"id":"fig6","status":"ok","wall_seconds":-1,"tables":[]}`, "negative"},
		{"huge exponent inf", `{"id":"fig6","status":"ok","wall_seconds":1e999,"tables":[]}`, "decode record"},
		{"null table entry", `{"id":"fig6","status":"ok","tables":[null]}`, "null table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec, err := DecodeRunRecord([]byte(tc.blob))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				if rec.Tables == nil {
					t.Fatal("Tables not normalized to empty slice")
				}
				return
			}
			if err == nil {
				t.Fatalf("accepted %s", tc.blob)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error = %v, want substring %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateRecordMatchesDecoder(t *testing.T) {
	if err := ValidateRecord([]byte(`{"id":"x","status":"ok","tables":[]}`)); err != nil {
		t.Fatal(err)
	}
	if err := ValidateRecord([]byte(`{"id":`)); err == nil {
		t.Fatal("validated a truncated record")
	}
}

// FuzzDecodeRunRecord pins the evict-and-recompute contract: whatever bytes
// a crash or corruption leaves in record.json, the loader returns an error
// or a well-formed record — it never panics and never accepts a record
// without an identity.
func FuzzDecodeRunRecord(f *testing.F) {
	f.Add([]byte(`{"id":"fig6","status":"ok","tables":[]}`))
	f.Add([]byte(`{"id":"fig6","status":"ok","tables":[]}{"id":"evil"}`))
	f.Add([]byte(`{"id":"fig6","status":"`))
	f.Add([]byte(`{"id":"fig6","wall_seconds":-1}`))
	f.Add([]byte(`{"id":"fig6","attempts":-1}`))
	f.Add([]byte(`null`))
	f.Add([]byte(``))
	f.Add([]byte("\x00\x01\x02"))
	rec := RunRecord{ID: "fig6", Status: StatusOK, WallSeconds: 1.25, Attempts: 3}
	if blob, err := json.Marshal(rec); err == nil {
		f.Add(blob)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, err := DecodeRunRecord(data)
		if err != nil {
			return
		}
		if rec.ID == "" {
			t.Fatalf("accepted record without id: %q", data)
		}
		if rec.Tables == nil {
			t.Fatalf("accepted record with nil tables: %q", data)
		}
		// A record the loader accepts must round-trip through the same
		// loader (the committed form is exactly re-marshaled JSON).
		blob, err := json.Marshal(rec)
		if err != nil {
			t.Fatalf("accepted record does not re-marshal: %v", err)
		}
		if _, err := DecodeRunRecord(blob); err != nil {
			t.Fatalf("round-trip rejected: %v (from %q)", err, data)
		}
	})
}
