package cache

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

func testKey(t *testing.T, v any) string {
	t.Helper()
	k, err := Key(v)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestKeyCanonicalizesParsedForm(t *testing.T) {
	// Two JSON documents with different field order and spelling must hash
	// identically once parsed into the same struct.
	type spec struct {
		A string `json:"a,omitempty"`
		B int    `json:"b,omitempty"`
	}
	var x, y spec
	if err := json.Unmarshal([]byte(`{"a":"v","b":2}`), &x); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal([]byte(`{"b":2,  "a":"v"}`), &y); err != nil {
		t.Fatal(err)
	}
	if testKey(t, x) != testKey(t, y) {
		t.Fatal("field order changed the key")
	}
	if testKey(t, spec{A: "v", B: 2}) != testKey(t, x) {
		t.Fatal("literal vs parsed mismatch")
	}
	if testKey(t, spec{A: "v", B: 3}) == testKey(t, x) {
		t.Fatal("different content, same key")
	}
	if len(testKey(t, x)) != 64 {
		t.Fatalf("key length %d, want 64 hex chars", len(testKey(t, x)))
	}
}

func TestKeyRejectsUnmarshalable(t *testing.T) {
	if _, err := Key(func() {}); err == nil {
		t.Fatal("func value produced a key")
	}
}

func TestClaimCommitGet(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "cell-1")

	if _, ok, err := s.Get(key); err != nil || ok {
		t.Fatalf("empty store Get = %v, %v", ok, err)
	}

	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatalf("Claim = %v, %v", claim, err)
	}
	// Artifacts staged under SeriesDir travel with the commit.
	sub := filepath.Join(claim.SeriesDir(), "exp1")
	if err := os.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(sub, "cell.jsonl"), []byte("{}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	dir, err := claim.Commit([]byte(`{"id":"cell-1"}`))
	if err != nil {
		t.Fatal(err)
	}
	if dir != s.CellDir(key) {
		t.Fatalf("committed to %q, want %q", dir, s.CellDir(key))
	}

	e, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after commit = %v, %v", ok, err)
	}
	if string(e.Record) != `{"id":"cell-1"}` {
		t.Fatalf("record = %s", e.Record)
	}
	if _, err := os.Stat(filepath.Join(e.Dir, SeriesDirName, "exp1", "cell.jsonl")); err != nil {
		t.Fatalf("series not published: %v", err)
	}
	if _, err := os.Stat(s.lockPath(key)); !os.IsNotExist(err) {
		t.Fatalf("lock survived commit: %v", err)
	}

	// A second commit attempt on the resolved claim fails cleanly.
	if _, err := claim.Commit(nil); err == nil {
		t.Fatal("double commit succeeded")
	}

	if err := s.Evict(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := s.Get(key); ok {
		t.Fatal("entry survived Evict")
	}
}

func TestClaimConflictAndRelease(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "contended")

	first, err := s.Claim(key)
	if err != nil || first == nil {
		t.Fatalf("first claim: %v, %v", first, err)
	}
	// Same-process PID is alive, so the second claim loses.
	second, err := s.Claim(key)
	if err != nil || second != nil {
		t.Fatalf("second claim = %v, %v (want nil, nil)", second, err)
	}
	first.Release()
	if _, err := os.Stat(first.staging); !os.IsNotExist(err) {
		t.Fatalf("staging survived release: %v", err)
	}
	retry, err := s.Claim(key)
	if err != nil || retry == nil {
		t.Fatalf("claim after release: %v, %v", retry, err)
	}
	retry.Release()
	retry.Release() // idempotent
}

// TestClaimRaceHasOneWinner: claimants racing for one key must produce
// exactly one owner, every round. A lock that is visible before its PID is
// written lets a loser read it as malformed, break it, and claim a cell that
// is already being computed — the lock must appear with its contents.
func TestClaimRaceHasOneWinner(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const claimants = 4
	for round := 0; round < 200; round++ {
		key := testKey(t, fmt.Sprintf("raced-%d", round))
		claims := make([]*Claim, claimants)
		errs := make([]error, claimants)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for i := 0; i < claimants; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-start
				claims[i], errs[i] = s.Claim(key)
			}(i)
		}
		close(start)
		wg.Wait()
		winners := 0
		for i, c := range claims {
			if errs[i] != nil {
				t.Fatalf("round %d claimant %d: %v", round, i, errs[i])
			}
			if c != nil {
				winners++
				c.Release()
			}
		}
		if winners != 1 {
			t.Fatalf("round %d: %d claimants won the same cell, want 1", round, winners)
		}
	}
	if left, _ := os.ReadDir(filepath.Join(s.Dir(), "tmp")); len(left) != 0 {
		t.Fatalf("claims left %d entries in tmp/ (first: %s)", len(left), left[0].Name())
	}
}

func TestClaimBreaksDeadOwner(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "orphaned")
	lock := s.lockPath(key)
	if err := os.MkdirAll(filepath.Dir(lock), 0o755); err != nil {
		t.Fatal(err)
	}
	// A PID far beyond pid_max is never alive.
	if err := os.WriteFile(lock, []byte(fmt.Sprint(1<<30)), 0o644); err != nil {
		t.Fatal(err)
	}
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatalf("dead owner's claim not broken: %v, %v", claim, err)
	}
	claim.Release()
}

func TestClaimBreaksStaleMtime(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.StaleClaim = time.Millisecond
	key := testKey(t, "stale")
	lock := s.lockPath(key)
	if err := os.MkdirAll(filepath.Dir(lock), 0o755); err != nil {
		t.Fatal(err)
	}
	// A live PID (our own), but the lock is older than StaleClaim — the
	// cross-host path where liveness can't be probed.
	if err := os.WriteFile(lock, []byte(fmt.Sprint(os.Getpid())), 0o644); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(lock, old, old); err != nil {
		t.Fatal(err)
	}
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatalf("stale claim not broken: %v, %v", claim, err)
	}
	claim.Release()
}

func TestClaimMalformedLockIsStale(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "garbled")
	lock := s.lockPath(key)
	if err := os.MkdirAll(filepath.Dir(lock), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(lock, []byte("not a pid"), 0o644); err != nil {
		t.Fatal(err)
	}
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatalf("malformed claim not broken: %v, %v", claim, err)
	}
	claim.Release()
}

func TestWaitSeesCommit(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "awaited")
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatal("claim failed")
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		claim.Commit([]byte(`{"ok":true}`))
	}()
	e, err := s.Wait(context.Background(), key, 5*time.Millisecond)
	if err != nil || e == nil {
		t.Fatalf("Wait = %v, %v", e, err)
	}
	if !strings.Contains(string(e.Record), "true") {
		t.Fatalf("record = %s", e.Record)
	}
}

func TestWaitReturnsNilOnRelease(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "abandoned")
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatal("claim failed")
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		claim.Release()
	}()
	e, err := s.Wait(context.Background(), key, 5*time.Millisecond)
	if err != nil || e != nil {
		t.Fatalf("Wait after release = %v, %v (want nil, nil)", e, err)
	}
}

func TestWaitHonorsContext(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := testKey(t, "forever")
	claim, err := s.Claim(key)
	if err != nil || claim == nil {
		t.Fatal("claim failed")
	}
	defer claim.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if _, err := s.Wait(ctx, key, 5*time.Millisecond); err == nil {
		t.Fatal("Wait ignored cancellation")
	}
}

func TestOpenSweepsDeadStaging(t *testing.T) {
	dir := t.TempDir()
	// Old + dead owner: reaped.
	dead := filepath.Join(dir, "tmp", fmt.Sprintf("somekey.%d", 1<<30))
	if err := os.MkdirAll(dead, 0o755); err != nil {
		t.Fatal(err)
	}
	old := time.Now().Add(-2 * tmpGCGrace)
	if err := os.Chtimes(dead, old, old); err != nil {
		t.Fatal(err)
	}
	// Dead owner but fresh: inside the grace window (the PID may not have
	// started yet — a racing process mid-MkdirTemp), so it survives.
	freshDead := filepath.Join(dir, "tmp", fmt.Sprintf("newkey.%d", 1<<30-1))
	if err := os.MkdirAll(freshDead, 0o755); err != nil {
		t.Fatal(err)
	}
	// Live owner, however old: never reaped.
	live := filepath.Join(dir, "tmp", fmt.Sprintf("otherkey.%d", os.Getpid()))
	if err := os.MkdirAll(live, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(live, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dead); !os.IsNotExist(err) {
		t.Fatal("old dead staging dir survived Open")
	}
	if _, err := os.Stat(freshDead); err != nil {
		t.Fatal("fresh staging dir was swept inside the grace window")
	}
	if _, err := os.Stat(live); err != nil {
		t.Fatal("live staging dir was swept")
	}
}

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Fatal("empty dir accepted")
	}
}
