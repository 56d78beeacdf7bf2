package server

// The /debug/ist/traces endpoint (DESIGN.md §13): the in-process span
// repository rendered for humans and scripts without any external
// collector.
//
//	GET /debug/ist/traces                     -> JSON trace listing
//	GET /debug/ist/traces?trace=<32hex>       -> JSON span tree of one trace
//	GET /debug/ist/traces?trace=<32hex>&format=html -> waterfall HTML
//
// This file also holds the flight-dump path: on a seq conflict, an
// admission shed, a session failure (rescued panic) or budget exhaustion,
// the last spans of the session's trace, as the span store holds them, are
// written to <TraceDir>/<id>.flight.json so the moments before the anomaly
// outlive the bounded in-memory store.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"ist/internal/obs"
)

// TraceListResponse is the JSON shape of the bare trace listing.
type TraceListResponse struct {
	Tracing bool               `json:"tracing"`
	Traces  []obs.TraceSummary `json:"traces"`
}

// TraceResponse is the JSON shape of one trace's span tree.
type TraceResponse struct {
	Trace   string          `json:"trace"`
	Spans   int             `json:"spans"`
	Dropped int             `json:"dropped,omitempty"`
	Tree    []*obs.SpanNode `json:"tree"`
}

func (srv *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	if srv.spans == nil {
		http.Error(w, "tracing disabled (start the server with tracing enabled)", http.StatusNotFound)
		return
	}
	q := r.URL.Query().Get("trace")
	if q == "" {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(TraceListResponse{Tracing: true, Traces: srv.spans.Traces()})
		return
	}
	var id obs.TraceID
	if err := id.UnmarshalText([]byte(q)); err != nil || id.IsZero() {
		http.Error(w, "trace must be 32 hex digits", http.StatusBadRequest)
		return
	}
	spans, dropped := srv.spans.Trace(id)
	if spans == nil {
		http.Error(w, "no such trace (evicted or never seen)", http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("format") == "html" {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_ = obs.WriteWaterfall(w, id, spans)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(TraceResponse{
		Trace:   id.String(),
		Spans:   len(spans),
		Dropped: dropped,
		Tree:    obs.BuildTree(spans),
	})
}

// flightSpans is how many of a trace's newest spans a flight dump keeps.
const flightSpans = 256

// flightDump is the on-disk shape of a flight dump.
type flightDump struct {
	Session string         `json:"session"`
	Reason  string         `json:"reason"`
	At      time.Time      `json:"at"`
	Spans   []obs.SpanData `json:"spans"`
}

// dumpFlight writes the last flightSpans spans of the session's trace, in
// arrival order, to the trace dir. A later dump for the same session
// overwrites an earlier one — the file is a black box, not an archive. A
// trace the store has already evicted dumps no spans. No-op without
// tracing, without a trace dir, or for an unknown session; callers must
// not hold st.mu (file IO).
func (srv *Server) dumpFlight(id string, st *sessionState, reason string) {
	if st == nil || st.root == nil || srv.opt.TraceDir == "" {
		return
	}
	spans, _ := srv.spans.Trace(st.root.TraceID())
	if len(spans) > flightSpans {
		spans = spans[len(spans)-flightSpans:]
	}
	dump := flightDump{Session: id, Reason: reason, At: srv.now(), Spans: spans}
	payload, err := json.MarshalIndent(dump, "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(srv.opt.TraceDir, id+".flight.json")
	if err := os.WriteFile(path, payload, 0o644); err != nil {
		return
	}
	srv.flightDumps.Inc()
}
