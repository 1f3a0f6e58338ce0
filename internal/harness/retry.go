package harness

import (
	"math/rand"
	"time"
)

// The retry schedule: the first retry waits about baseRetryBackoff, and each
// later one doubles it up to maxRetryBackoff. Retries are mechanics: they
// never participate in cache keys, so the same sweep with and without
// retries resolves to identical cells.
const (
	baseRetryBackoff = 500 * time.Millisecond
	maxRetryBackoff  = 30 * time.Second
)

// retryBackoff is the delay before the first retry. Overridable in tests.
var retryBackoff = baseRetryBackoff

// retryable reports whether a run verdict is worth re-running: error,
// timeout, stalled and crashed are. A canceled cell (the user hit Ctrl-C) is
// never retried, and ok never re-runs.
func retryable(status string) bool {
	switch status {
	case StatusError, StatusTimeout, StatusStalled, StatusCrashed:
		return true
	}
	return false
}

// backoff returns the jittered delay before retry attempt `attempt`
// (attempt 2 = first retry). Full-jitter-lite: uniform in [d/2, d] where d
// doubles per retry, so colliding workers decorrelate without ever retrying
// immediately.
func backoff(attempt int) time.Duration {
	d := retryBackoff
	for i := 2; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}
