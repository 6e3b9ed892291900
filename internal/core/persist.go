package core

import (
	"encoding/json"
	"fmt"
	"io"

	"impress/internal/ga"
)

// The JSON schema version; bump on breaking changes.
const resultSchemaVersion = 1

// resultFile is the on-disk campaign record: Result's own JSON tags
// framed by the schema version first and the task-detail flag last.
type resultFile struct {
	Schema int `json:"schema"`
	*Result
	IncludeTaskDetail bool `json:"include_task_detail"`
}

// WriteJSON serializes the result. includeTasks controls whether the
// per-task timeline (potentially thousands of records) is included.
func (r *Result) WriteJSON(w io.Writer, includeTasks bool) error {
	out := *r
	if !includeTasks {
		out.TaskRecords = nil
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(resultFile{Schema: resultSchemaVersion, Result: &out, IncludeTaskDetail: includeTasks})
}

// ReadResultJSON loads a campaign record written by WriteJSON. The
// reconstructed Result supports all read accessors (iteration summaries,
// net deltas, series, final designs).
func ReadResultJSON(rd io.Reader) (*Result, error) {
	f := resultFile{Result: new(Result)}
	if err := json.NewDecoder(rd).Decode(&f); err != nil {
		return nil, fmt.Errorf("core: decoding result: %w", err)
	}
	if f.Schema != resultSchemaVersion {
		return nil, fmt.Errorf("core: result schema %d, want %d", f.Schema, resultSchemaVersion)
	}
	if f.Pool == nil {
		f.Pool = ga.NewPool()
	}
	return f.Result, nil
}
