package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"memreliability/internal/obs"
)

// counters is a parsed Prometheus text exposition: series key
// (`name{labels}` exactly as exposed) → value.
type counters map[string]float64

// parseProm reads a Prometheus text exposition, skipping comments.
func parseProm(r io.Reader) (counters, error) {
	out := counters{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("prom: %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// engineCounters snapshots the process-wide engine registry.
func engineCounters() counters {
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		panic(err)
	}
	c, err := parseProm(&buf)
	if err != nil {
		panic(err)
	}
	return c
}

// fetchCounters scrapes a /metrics/prom endpoint.
func fetchCounters(client *http.Client, url string) (counters, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return parseProm(resp.Body)
}

// sum totals every series of a metric whose labels contain all of the
// given `key="value"` pairs.
func (c counters) sum(name string, labels ...string) float64 {
	total := 0.0
	for key, v := range c {
		series, rest, _ := strings.Cut(key, "{")
		if series != name {
			continue
		}
		ok := true
		for _, l := range labels {
			if !strings.Contains(rest, l) {
				ok = false
				break
			}
		}
		if ok {
			total += v
		}
	}
	return total
}

// delta returns after − before for one metric and label filter.
func delta(before, after counters, name string, labels ...string) float64 {
	return after.sum(name, labels...) - before.sum(name, labels...)
}
