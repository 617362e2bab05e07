package harness

import (
	"encoding/json"
	"io"
)

// Schema identifies the report file format.
const Schema = "vinfra-bench/v1"

// Report is the machine-readable form of a Suite — the on-disk JSON format
// written by `chabench -json`. The encoding is deterministic: experiments
// and cells appear in registry order, rows are arrays in column order, and
// map keys (params) are sorted by encoding/json.
type Report struct {
	Schema      string             `json:"schema"`
	Go          string             `json:"go,omitempty"`
	Machine     string             `json:"machine,omitempty"`
	Note        string             `json:"note,omitempty"`
	Quick       bool               `json:"quick"`
	Experiments []ReportExperiment `json:"experiments"`
}

// ReportExperiment is one table's worth of cells.
type ReportExperiment struct {
	ID      string       `json:"id"`
	Group   string       `json:"group"`
	Title   string       `json:"title"`
	Notes   string       `json:"notes,omitempty"`
	Columns []string     `json:"columns"`
	Cells   []ReportCell `json:"cells"`
}

// ReportCell is one experiment×params×seed execution.
type ReportCell struct {
	Cell   string         `json:"cell"`
	Seed   int64          `json:"seed"`
	Params map[string]any `json:"params,omitempty"`
	Rows   [][]any        `json:"rows"`
}

// Report converts the suite to its serializable form.
func (s *Suite) Report() *Report {
	r := &Report{
		Schema:  Schema,
		Go:      s.GoVersion,
		Machine: s.Machine,
		Note:    s.Note,
		Quick:   s.Quick,
	}
	for _, exp := range s.Experiments {
		re := ReportExperiment{
			ID:      exp.Desc.ID,
			Group:   exp.Desc.Group,
			Title:   exp.Desc.Title,
			Notes:   exp.Desc.Notes,
			Columns: exp.Desc.Columns,
		}
		for _, c := range exp.Cells {
			rc := ReportCell{
				Cell:   c.Label,
				Seed:   c.Seed,
				Params: c.Params.Map(),
				Rows:   make([][]any, len(c.Rows)),
			}
			for i, row := range c.Rows {
				vals := make([]any, len(row))
				for j, v := range row {
					vals[j] = v.V
				}
				rc.Rows[i] = vals
			}
			re.Cells = append(re.Cells, rc)
		}
		r.Experiments = append(r.Experiments, re)
	}
	return r
}

// WriteJSON writes the suite's report as indented JSON.
func (s *Suite) WriteJSON(w io.Writer) error {
	return WriteReport(w, s.Report())
}

// WriteReport writes a report as indented JSON with a trailing newline.
func WriteReport(w io.Writer, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
