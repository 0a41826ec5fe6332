package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"time"
)

// client holds one keep-alive HTTP connection per load-generator worker.
type client struct {
	base string
	hc   []*http.Client
}

func newClient(base string, conns int) *client {
	c := &client{base: base}
	for i := 0; i < conns; i++ {
		c.hc = append(c.hc, &http.Client{
			Timeout:   30 * time.Second,
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		})
	}
	return c
}

func (c *client) close() {
	for _, h := range c.hc {
		h.CloseIdleConnections()
	}
}

// answer is the JSON an estimate route returns.
type answer struct {
	Card         float64 `json:"card"`
	Source       string  `json:"source"`
	ModelVersion uint64  `json:"model_version"`
	Samples      int     `json:"samples"`
	Err          string  `json:"err"`
}

func (c *client) do(worker int, req *http.Request) ([]byte, error) {
	resp, err := c.hc[worker].Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", req.Method, req.URL.Path, resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, nil
}

// estimate asks path for one estimate and checks it: a model answer (not
// fallback, shed or degraded) with a finite card in [0, maxCard].
func (c *client) estimate(worker int, path, where string, maxCard float64) (answer, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path+"?where="+url.QueryEscape(where), nil)
	if err != nil {
		return answer{}, err
	}
	body, err := c.do(worker, req)
	if err != nil {
		return answer{}, err
	}
	var a answer
	if err := json.Unmarshal(body, &a); err != nil {
		return answer{}, fmt.Errorf("estimate %q: %v", where, err)
	}
	switch {
	case a.Source != "model":
		return a, fmt.Errorf("estimate %q: source %q (%s)", where, a.Source, a.Err)
	case math.IsNaN(a.Card) || math.IsInf(a.Card, 0):
		return a, fmt.Errorf("estimate %q: card %v is not finite", where, a.Card)
	case a.Card < 0 || a.Card > maxCard:
		return a, fmt.Errorf("estimate %q: card %v outside [0, %v]", where, a.Card, maxCard)
	}
	return a, nil
}

// appendResp is the part of an append acknowledgement the benchmark checks.
type appendResp struct {
	TotalRows int `json:"total_rows"`
}

func (c *client) appendRows(worker int, path string, body []byte) (appendResp, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return appendResp{}, err
	}
	req.Header.Set("Content-Type", "text/csv")
	b, err := c.do(worker, req)
	if err != nil {
		return appendResp{}, err
	}
	var a appendResp
	if err := json.Unmarshal(b, &a); err != nil {
		return appendResp{}, fmt.Errorf("append: %v", err)
	}
	return a, nil
}

// getJSON fetches path and decodes its JSON into v.
func (c *client) getJSON(path string, v any) error {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	b, err := c.do(0, req)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}

// qerror is the symmetric ratio error, with both sides floored at 1 row.
func qerror(est, truth float64) float64 {
	est, truth = math.Max(est, 1), math.Max(truth, 1)
	return math.Max(est/truth, truth/est)
}
