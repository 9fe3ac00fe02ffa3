// Package mcp exposes the campaign service as a Model Context Protocol
// server over stdio: line-delimited JSON-RPC 2.0, the transport agentic
// clients speak. Four tools cover the service surface — list the
// experiment registry, submit a campaign (blocking until its artifact
// exists), fetch a cached artifact by digest or job id, and compare two
// cached sweep artifacts with the repository's statistical gate.
//
// The server is deliberately synchronous: one request, one response, in
// order. Campaigns are seconds-to-minutes of simulation, and the exact
// cache means a repeated question costs one lookup, so a blocking
// submit_campaign is both the simplest and the honest contract.
package mcp

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"splapi/internal/campaign"
	"splapi/internal/campaign/server"
	"splapi/internal/sweep"
)

// protocolVersion is the MCP revision this server implements.
const protocolVersion = "2024-11-05"

// Server serves the MCP protocol over one reader/writer pair.
type Server struct {
	svc *server.Service
	git string
}

// New wraps a campaign service.
func New(svc *server.Service, git string) *Server {
	return &Server{svc: svc, git: git}
}

// request is one incoming JSON-RPC message. A nil ID marks a
// notification, which gets no response.
type request struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Method  string          `json:"method"`
	Params  json.RawMessage `json:"params"`
}

type response struct {
	JSONRPC string          `json:"jsonrpc"`
	ID      json.RawMessage `json:"id"`
	Result  any             `json:"result,omitempty"`
	Error   *rpcError       `json:"error,omitempty"`
}

type rpcError struct {
	Code    int    `json:"code"`
	Message string `json:"message"`
}

// JSON-RPC error codes used here.
const (
	codeParse          = -32700
	codeMethodNotFound = -32601
	codeInvalidParams  = -32602
)

// toolResult is the tools/call result shape: text content blocks plus an
// error flag (tool failures are results, not protocol errors).
type toolResult struct {
	Content []content `json:"content"`
	IsError bool      `json:"isError,omitempty"`
}

type content struct {
	Type string `json:"type"`
	Text string `json:"text"`
}

func textResult(text string) toolResult {
	return toolResult{Content: []content{{Type: "text", Text: text}}}
}

func errorResult(err error) toolResult {
	return toolResult{Content: []content{{Type: "text", Text: err.Error()}}, IsError: true}
}

// toolDef is one tools/list entry.
type toolDef struct {
	Name        string         `json:"name"`
	Description string         `json:"description"`
	InputSchema map[string]any `json:"inputSchema"`
}

func obj(props map[string]any, required ...string) map[string]any {
	s := map[string]any{"type": "object", "properties": props}
	if len(required) > 0 {
		s["required"] = required
	}
	return s
}

func (s *Server) tools() []toolDef {
	str := func(desc string) map[string]any { return map[string]any{"type": "string", "description": desc} }
	num := func(desc string) map[string]any { return map[string]any{"type": "number", "description": desc} }
	return []toolDef{
		{
			Name:        "list_experiments",
			Description: "List the paper-reproduction experiments the simulator can run (id, title, unit, cell count).",
			InputSchema: obj(map[string]any{}),
		},
		{
			Name: "submit_campaign",
			Description: "Run a simulation campaign and wait for its artifact. kind is sweep " +
				"(full experiment matrix, sweep/v2 JSON), chaos (fault-injection acceptance matrix), " +
				"or trace (one cell's Chrome trace). Identical requests are served from the exact " +
				"result cache. Returns the job id, content digest, and whether it was a cache hit; " +
				"fetch the artifact bytes with fetch_result.",
			InputSchema: obj(map[string]any{
				"kind":       str("campaign kind: sweep, chaos, or trace"),
				"experiment": str("experiment id (sweep and trace; see list_experiments)"),
				"seeds":      num("repetitions per cell (sweep; default 1)"),
				"seedsMax":   num("sequential-stopping cap on repetitions (sweep)"),
				"relCIPct":   num("sequential-stopping CI target in percent (sweep)"),
				"baseSeed":   num("base seed perturbing every derived seed (sweep; default 1)"),
				"faults":     str("fault-plan spec: preset name, uniform:drop=..., or @file.json (sweep and trace)"),
				"series":     str("cell series (trace; empty = first cell)"),
				"x":          num("cell x value (trace)"),
				"seed":       num("run seed (trace; default 1)"),
			}, "kind"),
		},
		{
			Name: "fetch_result",
			Description: "Fetch a completed campaign artifact: sweep/v2 JSON, chaos/v1 JSON, or a " +
				"tracelog/v1 Chrome trace. Address it by content digest (preferred) or job id.",
			InputSchema: obj(map[string]any{
				"digest": str("content digest returned by submit_campaign"),
				"job":    str("job id returned by submit_campaign"),
			}),
		},
		{
			Name: "compare_artifacts",
			Description: "Compare two cached sweep artifacts (by content digest) with the repository's " +
				"distribution-aware regression gate. Reports per-point movements and the regression verdict.",
			InputSchema: obj(map[string]any{
				"old":    str("digest of the baseline sweep artifact"),
				"new":    str("digest of the candidate sweep artifact"),
				"tolPct": num("tolerance in percent of the old median (default 0: any movement counts)"),
			}, "old", "new"),
		},
	}
}

// Serve reads JSON-RPC lines from r and writes responses to w until EOF,
// a read error, or ctx cancellation (checked between messages — an idle
// server parked on a read exits when its input closes).
func (s *Server) Serve(ctx context.Context, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	enc := json.NewEncoder(w)
	for sc.Scan() {
		if err := ctx.Err(); err != nil {
			return err
		}
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var req request
		if err := json.Unmarshal([]byte(line), &req); err != nil {
			if err := enc.Encode(response{JSONRPC: "2.0", Error: &rpcError{codeParse, "parse error: " + err.Error()}}); err != nil {
				return err
			}
			continue
		}
		resp := s.handle(ctx, &req)
		if resp == nil {
			continue // notification
		}
		if err := enc.Encode(resp); err != nil {
			return err
		}
	}
	return sc.Err()
}

func (s *Server) handle(ctx context.Context, req *request) *response {
	result, rpcErr := s.dispatch(ctx, req)
	if req.ID == nil {
		return nil
	}
	resp := &response{JSONRPC: "2.0", ID: req.ID}
	if rpcErr != nil {
		resp.Error = rpcErr
	} else {
		resp.Result = result
	}
	return resp
}

func (s *Server) dispatch(ctx context.Context, req *request) (any, *rpcError) {
	switch req.Method {
	case "initialize":
		return map[string]any{
			"protocolVersion": protocolVersion,
			"capabilities":    map[string]any{"tools": map[string]any{}},
			"serverInfo":      map[string]any{"name": "spsimd", "version": s.git},
		}, nil
	case "notifications/initialized", "notifications/cancelled":
		return nil, nil
	case "ping":
		return map[string]any{}, nil
	case "tools/list":
		return map[string]any{"tools": s.tools()}, nil
	case "tools/call":
		var params struct {
			Name      string          `json:"name"`
			Arguments json.RawMessage `json:"arguments"`
		}
		if err := json.Unmarshal(req.Params, &params); err != nil {
			return nil, &rpcError{codeInvalidParams, "bad tools/call params: " + err.Error()}
		}
		return s.callTool(ctx, params.Name, params.Arguments), nil
	default:
		return nil, &rpcError{codeMethodNotFound, fmt.Sprintf("method %q not found", req.Method)}
	}
}

func (s *Server) callTool(ctx context.Context, name string, args json.RawMessage) toolResult {
	if len(args) == 0 {
		args = json.RawMessage("{}")
	}
	switch name {
	case "list_experiments":
		data, err := json.MarshalIndent(campaign.ListExperiments(), "", "  ")
		if err != nil {
			return errorResult(err)
		}
		return textResult(string(data))
	case "submit_campaign":
		var req campaign.Request
		dec := json.NewDecoder(strings.NewReader(string(args)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return errorResult(fmt.Errorf("campaign: bad arguments: %w", err))
		}
		j, err := s.svc.Submit(req)
		if err != nil {
			return errorResult(err)
		}
		select {
		case <-j.Done():
		case <-ctx.Done():
			return errorResult(ctx.Err())
		}
		if j.State() != "done" {
			return errorResult(fmt.Errorf("campaign: job %s %s: %s", j.ID, j.State(), j.Err()))
		}
		body, _ := j.Body()
		summary, err := json.MarshalIndent(map[string]any{
			"job": j.ID, "digest": j.Key, "state": j.State(), "cached": j.Cached, "bytes": len(body),
		}, "", "  ")
		if err != nil {
			return errorResult(err)
		}
		return textResult(string(summary))
	case "fetch_result":
		var sel struct {
			Digest string `json:"digest"`
			Job    string `json:"job"`
		}
		if err := json.Unmarshal(args, &sel); err != nil {
			return errorResult(fmt.Errorf("campaign: bad arguments: %w", err))
		}
		switch {
		case sel.Digest != "":
			body, ok := s.svc.Result(sel.Digest)
			if !ok {
				return errorResult(fmt.Errorf("campaign: no cached result for digest %s", sel.Digest))
			}
			return textResult(string(body))
		case sel.Job != "":
			j, ok := s.svc.Job(sel.Job)
			if !ok {
				return errorResult(fmt.Errorf("campaign: no job %q", sel.Job))
			}
			body, ok := j.Body()
			if !ok {
				return errorResult(fmt.Errorf("campaign: job %s is %s, not done", j.ID, j.State()))
			}
			return textResult(string(body))
		default:
			return errorResult(fmt.Errorf("campaign: fetch_result needs a digest or a job id"))
		}
	case "compare_artifacts":
		var sel struct {
			Old    string  `json:"old"`
			New    string  `json:"new"`
			TolPct float64 `json:"tolPct"`
		}
		if err := json.Unmarshal(args, &sel); err != nil {
			return errorResult(fmt.Errorf("campaign: bad arguments: %w", err))
		}
		oldRes, err := s.loadSweep(sel.Old)
		if err != nil {
			return errorResult(err)
		}
		newRes, err := s.loadSweep(sel.New)
		if err != nil {
			return errorResult(err)
		}
		deltas, err := sweep.Compare(oldRes, newRes, sweep.CompareOpts{TolPct: sel.TolPct})
		if err != nil {
			return errorResult(err)
		}
		var buf strings.Builder
		sweep.PrintDeltas(&buf, deltas, true)
		if regs := sweep.Regressions(deltas); len(regs) > 0 {
			fmt.Fprintf(&buf, "%d regression(s) at +%g%% tolerance\n", len(regs), sel.TolPct)
		} else {
			fmt.Fprintf(&buf, "no regressions (%d points compared, tolerance %g%%)\n", len(deltas), sel.TolPct)
		}
		return textResult(buf.String())
	default:
		return errorResult(fmt.Errorf("campaign: unknown tool %q", name))
	}
}

// loadSweep fetches a cached artifact by digest and decodes it as a
// sweep result.
func (s *Server) loadSweep(digest string) (*sweep.Result, error) {
	body, ok := s.svc.Result(digest)
	if !ok {
		return nil, fmt.Errorf("campaign: no cached result for digest %s", digest)
	}
	var r sweep.Result
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("campaign: artifact %s is not a sweep result: %w", digest, err)
	}
	if r.Schema != sweep.SchemaV2 {
		return nil, fmt.Errorf("campaign: artifact %s has schema %q, want %q", digest, r.Schema, sweep.SchemaV2)
	}
	return &r, nil
}
