package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// client is one closed-loop load client: one goroutine, one keep-alive
// connection. It counts the body bytes it sends and receives.
type client struct {
	hc        *http.Client
	base      string
	body      []byte
	resp      bytes.Buffer
	reqBytes  int64
	respBytes int64

	// decode targets, reused across calls
	growResp  struct{ Left, Right int64 }
	valueResp struct{ Value int64 }
	batchResp struct {
		Results []struct {
			Error string `json:"error"`
			Value *int64 `json:"value"`
		} `json:"results"`
	}
	queryResp struct {
		Combined int64 `json:"combined"`
		Trees    int   `json:"trees"`
		Errors   int   `json:"errors"`
	}
	got []int64
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// call sends one request and reads the whole response body into c.resp.
func (c *client) call(method, path string, body []byte) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	c.resp.Reset()
	_, err = c.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	c.reqBytes += int64(len(body))
	c.respBytes += int64(c.resp.Len())
	return resp.StatusCode, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (c *client) getJSON(path string, v any) error {
	status, err := c.call(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, c.resp.String())
	}
	return json.Unmarshal(c.resp.Bytes(), v)
}

// encode writes r's HTTP method, path and body.
func (c *client) encode(r *request) (method, path string, body []byte) {
	b := c.body[:0]
	tree := "/v1/trees/" + strconv.FormatUint(treeID(r.tree), 10)
	switch r.kind {
	case rqGrow:
		o := r.ops[0]
		b = append(b, `{"leaf":`...)
		b = strconv.AppendInt(b, int64(o.node), 10)
		b = append(b, `,"op":"`...)
		b = append(b, o.set.String()...)
		b = append(b, `","left":`...)
		b = strconv.AppendInt(b, o.v1, 10)
		b = append(b, `,"right":`...)
		b = strconv.AppendInt(b, o.v2, 10)
		b = append(b, '}')
		method, path = http.MethodPost, tree+"/grow"
	case rqCollapse:
		o := r.ops[0]
		b = append(b, `{"node":`...)
		b = strconv.AppendInt(b, int64(o.node), 10)
		b = append(b, `,"value":`...)
		b = strconv.AppendInt(b, o.v1, 10)
		b = append(b, '}')
		method, path = http.MethodPost, tree+"/collapse"
	case rqValue:
		return http.MethodGet, tree + "/value?node=" + strconv.Itoa(int(r.ops[0].node)), nil
	case rqSetBatch, rqValueBatch:
		b = append(b, `{"ops":[`...)
		for i, o := range r.ops {
			if i > 0 {
				b = append(b, ',')
			}
			switch {
			case r.kind == rqValueBatch:
				b = append(b, `{"kind":"value","node":`...)
				b = strconv.AppendInt(b, int64(o.node), 10)
			case o.set == kLeaf:
				b = append(b, `{"kind":"set-leaf","node":`...)
				b = strconv.AppendInt(b, int64(o.node), 10)
				b = append(b, `,"value":`...)
				b = strconv.AppendInt(b, o.v1, 10)
			default:
				b = append(b, `{"kind":"set-op","node":`...)
				b = strconv.AppendInt(b, int64(o.node), 10)
				b = append(b, `,"op":"`...)
				b = append(b, o.set.String()...)
				b = append(b, '"')
			}
			b = append(b, '}')
		}
		b = append(b, "]}"...)
		method, path = http.MethodPost, tree+"/batch"
	case rqQuery:
		b = append(b, `{"read":"root","combine":"sum"}`...)
		method, path = http.MethodPost, "/v1/query"
	}
	c.body = b
	return method, path, b
}

// do sends r and returns the answers the server gave, in the order
// checker.check expects. A transport error, a non-200 status or a per-op
// error in a batch fails the whole request.
func (c *client) do(r *request) ([]int64, error) {
	method, path, body := c.encode(r)
	status, err := c.call(method, path, body)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s %s: status %d: %s", method, path, status, bytes.TrimSpace(c.resp.Bytes()))
	}
	got := c.got[:0]
	data := c.resp.Bytes()
	switch r.kind {
	case rqGrow:
		c.growResp.Left, c.growResp.Right = -1, -1
		if err := json.Unmarshal(data, &c.growResp); err != nil {
			return nil, err
		}
		got = append(got, c.growResp.Left, c.growResp.Right)
	case rqValue:
		c.valueResp.Value = -1
		if err := json.Unmarshal(data, &c.valueResp); err != nil {
			return nil, err
		}
		got = append(got, c.valueResp.Value)
	case rqSetBatch, rqValueBatch:
		c.batchResp.Results = nil
		if err := json.Unmarshal(data, &c.batchResp); err != nil {
			return nil, err
		}
		res := c.batchResp.Results
		if len(res) != len(r.ops) {
			return nil, fmt.Errorf("batch answered %d results for %d ops", len(res), len(r.ops))
		}
		for i := range res {
			if res[i].Error != "" {
				return nil, fmt.Errorf("batch op %d: %s", i, res[i].Error)
			}
			if r.kind == rqValueBatch {
				if res[i].Value == nil {
					return nil, fmt.Errorf("batch op %d: no value", i)
				}
				got = append(got, *res[i].Value)
			}
		}
	case rqQuery:
		c.queryResp.Combined, c.queryResp.Errors = -1, -1
		if err := json.Unmarshal(data, &c.queryResp); err != nil {
			return nil, err
		}
		if c.queryResp.Errors != 0 {
			return nil, fmt.Errorf("query: %d tree errors", c.queryResp.Errors)
		}
		got = append(got, c.queryResp.Combined)
	}
	c.got = got
	return got, nil
}

// checker compares answers with the mirror's expectations. corrupt, when
// positive, perturbs the expectation of that (1-based) read answer: the
// benchmark's own test uses it to show a wrong answer counts as a failed
// op.
type checker struct {
	corrupt int64
	reads   atomic.Int64
}

// check returns how many of r's ops got a wrong answer. Writes without
// an answer are checked later through reads and final state.
func (ck *checker) check(r *request, got []int64) int {
	if r.kind == rqGrow {
		if len(got) != 2 || got[0] != r.want[0] || got[1] != r.want[1] {
			return 1
		}
		return 0
	}
	if len(got) != len(r.want) {
		return max(len(r.want), 1)
	}
	wrong := 0
	for i, w := range r.want {
		if ck.corrupt > 0 && ck.reads.Add(1) == ck.corrupt {
			w++
		}
		if got[i] != w {
			wrong++
		}
	}
	return wrong
}

// statsResp is the part of GET /v1/trees/{id}/stats the benchmark reads.
type statsResp struct {
	Engine struct {
		Waves    int64 `json:"waves"`
		Barriers int64 `json:"barriers"`
	} `json:"engine"`
	Pram struct {
		Steps int64 `json:"steps"`
		Work  int64 `json:"work"`
	} `json:"pram"`
}

// pramCount is metered PRAM work and steps and executed op waves
// (barrier waves, such as these stats reads, excluded).
type pramCount struct{ work, steps, waves int64 }

func (p pramCount) sub(q pramCount) pramCount {
	return pramCount{p.work - q.work, p.steps - q.steps, p.waves - q.waves}
}

// fetchPRAM sums the PRAM counters of trees 1..n.
func (c *client) fetchPRAM(n int) (pramCount, error) {
	var total pramCount
	var st statsResp
	for i := 0; i < n; i++ {
		if err := c.getJSON(fmt.Sprintf("/v1/trees/%d/stats", treeID(i)), &st); err != nil {
			return total, err
		}
		total.work += st.Pram.Work
		total.steps += st.Pram.Steps
		total.waves += st.Engine.Waves - st.Engine.Barriers
	}
	return total, nil
}
