// Package cache implements a content-addressed result store for sweep
// cells. Every cell is keyed by the hex SHA-256 of a canonical JSON
// "identity" object (the harness builds it from the RunSpec, the experiment,
// and the code version) and committed atomically under
//
//	<dir>/<key[:2]>/<key>/record.json   the cell's serialized RunRecord
//	<dir>/<key[:2]>/<key>/series/...    bulky artifacts (obs time series)
//
// so a committed cell is always complete: the staging directory under
// <dir>/tmp is populated first and renamed into place in one atomic step.
// While a cell is being computed its owner holds a lockfile claim
// (<dir>/<key[:2]>/<key>.lock, containing the owner's PID), which is how
// multiple worker processes share one cache directory to split a sweep:
// a worker that loses the claim race waits for the winner's commit instead
// of recomputing. Claims left behind by killed processes are broken by the
// next claimant (dead PID, or mtime older than Store.StaleClaim), which is
// what makes an interrupted sweep resumable exactly where it stopped.
//
// The store is deliberately generic — records are opaque JSON blobs — so it
// has no dependency on the harness's report types.
package cache

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// recordFile is the per-cell record filename; its presence defines a
// committed cell (the atomic rename guarantees it never exists partially).
const recordFile = "record.json"

// SeriesDirName is the per-cell subdirectory for bulky artifacts (time
// series files). Callers populate Claim.SeriesDir before Commit.
const SeriesDirName = "series"

// DefaultStaleClaim bounds how long a claim whose owner cannot be proven
// dead (e.g. a worker on another machine sharing the directory) blocks
// other claimants before being broken.
const DefaultStaleClaim = 15 * time.Minute

// Store is one cache directory. It is safe for use by many processes at
// once; within a process, use one Store per sweep (methods are stateless,
// so concurrent use is also fine).
type Store struct {
	dir string

	// StaleClaim is the age beyond which a live-looking claim is broken
	// anyway (covers owners on other hosts, where PID liveness means
	// nothing). Zero disables the age check; PID-dead claims are always
	// broken.
	StaleClaim time.Duration
}

// Open creates (if needed) and returns the store rooted at dir. The tmp
// staging area lives inside dir so commits rename within one filesystem;
// staging directories abandoned by dead processes are swept on open.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("cache: empty directory")
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	s := &Store{dir: dir, StaleClaim: DefaultStaleClaim}
	s.sweepTmp()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// CellDir returns the committed location for key (which exists only once
// the cell has been committed).
func (s *Store) CellDir(key string) string {
	return filepath.Join(s.dir, shard(key), key)
}

func (s *Store) lockPath(key string) string {
	return filepath.Join(s.dir, shard(key), key+".lock")
}

// shard spreads cells over 256 subdirectories.
func shard(key string) string {
	if len(key) < 2 {
		return "xx"
	}
	return key[:2]
}

// Entry is one committed cell.
type Entry struct {
	Key    string
	Dir    string          // the committed cell directory
	Record json.RawMessage // contents of record.json
}

// Get reports the committed entry for key, if any. A missing cell is not an
// error; a present but unreadable one is.
func (s *Store) Get(key string) (*Entry, bool, error) {
	dir := s.CellDir(key)
	blob, err := os.ReadFile(filepath.Join(dir, recordFile))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("cache: %w", err)
	}
	return &Entry{Key: key, Dir: dir, Record: blob}, true, nil
}

// Evict removes a committed cell (used to recover from a corrupt record so
// the cell can be recomputed).
func (s *Store) Evict(key string) error {
	return os.RemoveAll(s.CellDir(key))
}

// Claim attempts to take exclusive ownership of computing key. It returns
// (nil, nil) when another live process already holds the claim — the caller
// should Wait for that owner's commit. Claims whose owner is provably dead,
// or older than StaleClaim, are broken and re-taken, which is what lets a
// killed sweep's successor resume the exact cell that was in flight.
func (s *Store) Claim(key string) (*Claim, error) {
	lock := s.lockPath(key)
	if err := os.MkdirAll(filepath.Dir(lock), 0o755); err != nil {
		return nil, fmt.Errorf("cache: %w", err)
	}
	for attempt := 0; attempt < 3; attempt++ {
		err := s.publishLock(key, lock)
		if err == nil {
			crashPoint(CrashSiteClaim)
			staging := filepath.Join(s.dir, "tmp", fmt.Sprintf("%s.%d", key, os.Getpid()))
			os.RemoveAll(staging)
			if err := os.MkdirAll(staging, 0o755); err != nil {
				os.Remove(lock)
				return nil, fmt.Errorf("cache: %w", err)
			}
			crashPoint(CrashSiteStage)
			return &Claim{store: s, key: key, lock: lock, staging: staging}, nil
		}
		if !errors.Is(err, fs.ErrExist) {
			return nil, fmt.Errorf("cache: %w", err)
		}
		if !s.claimStale(lock) {
			return nil, nil
		}
		os.Remove(lock) // stale: break it and retry the exclusive link
	}
	return nil, nil
}

// publishLock creates the lockfile with this process's PID already in it,
// failing with fs.ErrExist when the lock is held. The lock must never be
// visible without its owner's PID: a claimant that read an empty lockfile
// would take it for malformed and break a live claim. So the PID is written
// to a private file first and the lock is published by hard-linking that
// file into place — the same exclusivity as O_EXCL, with the contents
// attached. The private file is named like a staging directory (trailing
// .PID), so one orphaned by a kill is reaped by the same GC.
func (s *Store) publishLock(key, lock string) error {
	f, err := os.CreateTemp(filepath.Join(s.dir, "tmp"), fmt.Sprintf("%s.lock*.%d", key, os.Getpid()))
	if err != nil {
		return err
	}
	defer os.Remove(f.Name())
	_, err = fmt.Fprintf(f, "%d\n", os.Getpid())
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return os.Link(f.Name(), lock)
}

// Wait blocks until key is committed by another process, polling the store.
// It returns (nil, nil) when the claim disappears without a commit (the
// owner released or died) — the caller should retry Claim. A claim whose
// owner is provably dead, or stale by age, counts as disappeared: a waiter
// must not be wedged forever by the lockfile of a SIGKILLed worker.
// Cancellation of ctx returns its error.
func (s *Store) Wait(ctx context.Context, key string, poll time.Duration) (*Entry, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	tick := time.NewTicker(poll)
	defer tick.Stop()
	for {
		if e, ok, err := s.Get(key); err != nil {
			return nil, err
		} else if ok {
			return e, nil
		}
		if s.claimStale(s.lockPath(key)) {
			// No live claim (vanished, dead owner, or stale by age): the
			// caller should retry Claim, which will break any leftover lock.
			// One last Get closes the release-after-commit race.
			e, ok, err := s.Get(key)
			if err != nil || !ok {
				return nil, err
			}
			return e, nil
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-tick.C:
		}
	}
}

// claimStale reports whether the lockfile may be broken: unreadable or
// malformed locks, dead owners, and (when StaleClaim is set) old locks all
// count as stale.
func (s *Store) claimStale(lock string) bool {
	fi, err := os.Stat(lock)
	if err != nil {
		return true // vanished or unreadable: retry the create
	}
	if s.StaleClaim > 0 && time.Since(fi.ModTime()) > s.StaleClaim {
		return true
	}
	blob, err := os.ReadFile(lock)
	if err != nil {
		return true
	}
	pid, err := strconv.Atoi(strings.TrimSpace(string(blob)))
	if err != nil || pid <= 0 {
		return true
	}
	return !processAlive(pid)
}

// processAlive reports whether pid exists on this host. EPERM (alive, other
// user) counts as alive; on platforms where signal 0 is unsupported the
// probe errs on the side of alive and the mtime staleness bound applies.
func processAlive(pid int) bool {
	p, err := os.FindProcess(pid)
	if err != nil {
		return false
	}
	err = p.Signal(syscall.Signal(0))
	if err == nil {
		return true
	}
	if errors.Is(err, os.ErrProcessDone) || errors.Is(err, syscall.ESRCH) {
		return false
	}
	return true
}

// tmpGCGrace is the minimum age before Open's GC may reap a staging
// directory whose owner looks dead. The PID probe can misfire — an owner on
// another host sharing the directory, or a PID namespace boundary — so a
// freshly-modified staging dir is never reaped on liveness evidence alone,
// mirroring the lockfile protocol's age + PID-liveness stale-breaking.
const tmpGCGrace = time.Minute

// sweepTmp garbage-collects staging directories abandoned by interrupted
// commits. It must never reap a directory another live process is actively
// staging, so it reaps only when the owner is provably dead AND the
// directory has not been touched within tmpGCGrace; directories whose owner
// cannot even be parsed are reaped once older than StaleClaim. A live
// owner's staging dir is never touched (a reused PID delays collection
// until that PID dies, which is bounded and harmless).
func (s *Store) sweepTmp() {
	entries, err := os.ReadDir(filepath.Join(s.dir, "tmp"))
	if err != nil {
		return
	}
	for _, e := range entries {
		s.reapTmp(e.Name(), tmpGCGrace)
	}
}

// reapTmp applies the staging GC policy to one tmp entry: deadGrace is the
// minimum age for reaping a dead owner's directory (fsck passes 0 — an
// explicit repair need not wait). Reports whether the entry was removed.
func (s *Store) reapTmp(name string, deadGrace time.Duration) bool {
	path := filepath.Join(s.dir, "tmp", name)
	fi, err := os.Stat(path)
	if err != nil {
		return false
	}
	age := time.Since(fi.ModTime())
	pid := 0
	if dot := strings.LastIndexByte(name, '.'); dot >= 0 {
		pid, _ = strconv.Atoi(name[dot+1:])
	}
	switch {
	case pid == os.Getpid():
		return false // our own in-flight claims
	case pid > 0 && processAlive(pid):
		return false // actively staging (or a reused PID; collected later)
	case pid > 0:
		if age < deadGrace {
			return false // dead-looking but fresh: the probe may be wrong
		}
	default:
		// Unattributable name (not ours): only age can clear it.
		if s.StaleClaim <= 0 || age < s.StaleClaim {
			return false
		}
	}
	os.RemoveAll(path)
	return true
}

// Claim is exclusive ownership of one in-flight cell. Exactly one of Commit
// and Release must be called; both are idempotent afterwards.
type Claim struct {
	store   *Store
	key     string
	lock    string
	staging string
	done    bool
}

// SeriesDir returns the staging directory for the cell's bulky artifacts;
// files written under it are published atomically with the record on
// Commit. The directory exists.
func (c *Claim) SeriesDir() string { return filepath.Join(c.staging, SeriesDirName) }

// Dir returns the cell's final committed location (valid after Commit).
func (c *Claim) Dir() string { return c.store.CellDir(c.key) }

// Commit writes the record into staging and atomically publishes the whole
// cell, then drops the lock. Returns the committed cell directory.
func (c *Claim) Commit(record []byte) (string, error) {
	if c.done {
		return "", errors.New("cache: claim already resolved")
	}
	final := c.store.CellDir(c.key)
	fail := func(err error) (string, error) {
		c.Release()
		return "", fmt.Errorf("cache: committing %s: %w", c.key, err)
	}
	if err := os.WriteFile(filepath.Join(c.staging, recordFile), record, 0o644); err != nil {
		return fail(err)
	}
	if err := os.MkdirAll(filepath.Dir(final), 0o755); err != nil {
		return fail(err)
	}
	crashPoint(CrashSiteCommitStage)
	if err := os.Rename(c.staging, final); err != nil {
		// A cell that appeared despite our lock (external writer) still
		// satisfies the caller; anything else is a real commit failure.
		if _, ok, _ := c.store.Get(c.key); ok {
			c.Release()
			return final, nil
		}
		return fail(err)
	}
	crashPoint(CrashSiteCommitRename)
	os.Remove(c.lock)
	c.done = true
	return final, nil
}

// Release abandons the claim: staging is discarded and the lock dropped, so
// another claimant (or a retry) can compute the cell.
func (c *Claim) Release() {
	if c.done {
		return
	}
	crashPoint(CrashSiteRelease)
	os.RemoveAll(c.staging)
	os.Remove(c.lock)
	c.done = true
}
