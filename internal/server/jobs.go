package server

import (
	"context"
	"encoding/json"
	"errors"
	"time"

	"symcluster/internal/jobstore"
	"symcluster/internal/obs"
)

// jobBody is JobInfo as this server writes it: the same fields in the
// same order, with the result spliced in as the bytes marshalled once
// at finish instead of re-encoded on every poll. Clients decode it as
// JobInfo.
type jobBody struct {
	JobID          string          `json:"job_id"`
	State          jobstore.State  `json:"state"`
	Result         json.RawMessage `json:"result,omitempty"`
	Error          string          `json:"error,omitempty"`
	DurationMillis float64         `json:"duration_millis,omitempty"`
	TraceID        string          `json:"trace_id,omitempty"`
	LinkTraceID    string          `json:"link_trace_id,omitempty"`
}

// renderJob renders a job snapshot as the GET /v1/jobs/{id} body.
func renderJob(j *jobstore.JobRecord) jobBody {
	body := jobBody{
		JobID: j.ID, State: j.State, Result: j.Result, Error: j.Err,
		TraceID: j.TraceID, LinkTraceID: j.LinkTraceID,
	}
	if !j.Finished.IsZero() && !j.Started.IsZero() {
		body.DurationMillis = float64(j.Finished.Sub(j.Started)) / float64(time.Millisecond)
	}
	return body
}

// finishJob records a run's outcome in the job table: canceled when the
// run's context was, failed on any other error, otherwise done with the
// response marshalled here, once. out and stats may be nil (a run
// rejected before it started has neither).
func (s *Server) finishJob(id string, out *runOutcome, stats *obs.JobStatsSnapshot, runErr error) {
	state, errMsg := jobstore.Done, ""
	var result, statsJSON json.RawMessage
	var trace *obs.SpanNode
	if out != nil {
		trace = out.Trace
	}
	switch {
	case runErr != nil:
		state, errMsg = jobstore.Failed, runErr.Error()
		if errors.Is(runErr, context.Canceled) {
			state = jobstore.Canceled
		}
	case out != nil && out.Resp != nil:
		result, _ = json.Marshal(out.Resp) // plain data: cannot fail
	}
	if stats != nil {
		statsJSON, _ = json.Marshal(stats)
	}
	if err := s.jobs.Finish(id, state, result, errMsg, statsJSON, trace); err != nil {
		s.log().Error("journaling job outcome", "job", id, "err", err)
	}
}
