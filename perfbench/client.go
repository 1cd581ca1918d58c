package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"gps/internal/obs"
	"gps/internal/stream"
)

// Refusal policy: a 503 or 429 is retried after refusalBackoff, up to
// maxAttempts attempts, instead of sleeping for the server's whole-second
// Retry-After (obeying it would measure the client's sleep, not the
// server). The waits stay inside the operation's latency.
const (
	refusalBackoff = 2 * time.Millisecond
	maxAttempts    = 2500
)

// conn is one keep-alive HTTP connection to the server: every request on
// it runs on the same TCP connection, so the generator's connection count
// is the number of conns.
type conn struct {
	base  string
	hc    *http.Client
	calls *callStats // attempt times by span name, shared by a run's conns
}

// callStats accumulates client-side attempt durations by span name, for
// comparison with the server's own request histograms.
type callStats struct {
	mu sync.Mutex
	ns map[string]int64
	n  map[string]int
}

func newCallStats() *callStats {
	return &callStats{ns: make(map[string]int64), n: make(map[string]int)}
}

func (s *callStats) add(name string, d time.Duration) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.ns[name] += int64(d)
	s.n[name]++
	s.mu.Unlock()
}

// meanMS is the mean attempt duration of name in milliseconds.
func (s *callStats) meanMS(name string) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n[name] == 0 {
		return 0
	}
	return float64(s.ns[name]) / float64(s.n[name]) / 1e6
}

func (s *callStats) reset() {
	s.mu.Lock()
	clear(s.ns)
	clear(s.n)
	s.mu.Unlock()
}

func newConn(addr string, calls *callStats) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	return &conn{base: "http://" + addr, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, calls: calls}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// once makes a single request and reads the whole response.
func (c *conn) once(method, path, ctype string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// call makes a request under the refusal policy, recording one span per
// attempt (named span) and per backoff under parent. It returns the 2xx
// body, the number of refusals met, and an error for a transport failure,
// another status, or refusals beyond the retry bound.
func (c *conn) call(tr *tracer, parent int, span, method, path, ctype string, body []byte) ([]byte, int, error) {
	refusals := 0
	for attempt := 1; ; attempt++ {
		id := tr.begin(span, parent)
		start := time.Now()
		status, data, err := c.once(method, path, ctype, body)
		c.calls.add(span, time.Since(start))
		tr.end(id)
		if err != nil {
			return nil, refusals, fmt.Errorf("%s %s: %w", method, path, err)
		}
		if status >= 200 && status < 300 {
			return data, refusals, nil
		}
		if status != http.StatusServiceUnavailable && status != http.StatusTooManyRequests {
			return nil, refusals, fmt.Errorf("%s %s: status %d: %s", method, path, status, strings.TrimSpace(string(data)))
		}
		refusals++
		if attempt == maxAttempts {
			return nil, refusals, fmt.Errorf("%s %s: still refused after %d attempts", method, path, attempt)
		}
		id = tr.begin("loadgen.backoff", parent)
		time.Sleep(refusalBackoff)
		tr.end(id)
	}
}

func (c *conn) ingest(tr *tracer, parent int, body []byte) ([]byte, int, error) {
	return c.call(tr, parent, "serve.ingest", http.MethodPost, "/v1/ingest", stream.BinaryContentType, body)
}

// scrape is one parsed /metrics exposition: sample values keyed by the
// series as rendered, e.g. `gps_http_request_seconds_sum{route="GET /v1/estimate"}`.
type scrape map[string]float64

// scrapeMetrics reads and lints the server's /metrics exposition with the
// in-repo linter; a scrape that fails the lint is an error.
func (c *conn) scrapeMetrics(tr *tracer) (scrape, error) {
	id := tr.begin("serve.metrics", -1)
	status, data, err := c.once(http.MethodGet, "/metrics", "", nil)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: status %d", status)
	}
	return parseExposition(data)
}

// parseExposition lints a Prometheus text exposition and returns its
// samples.
func parseExposition(data []byte) (scrape, error) {
	if _, _, err := obs.CheckExposition(bytes.NewReader(data)); err != nil {
		return nil, fmt.Errorf("metrics exposition fails the obs lint: %w", err)
	}
	out := make(scrape)
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics sample %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// delta returns after[key] - before[key] (a missing sample reads 0).
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }

// histMeanMS is the mean of a seconds histogram's observations between two
// scrapes, in milliseconds, and the number of observations.
func histMeanMS(before, after scrape, family, labels string) (float64, float64) {
	n := delta(before, after, family+"_count"+labels)
	if n <= 0 {
		return 0, 0
	}
	return 1000 * delta(before, after, family+"_sum"+labels) / n, n
}
