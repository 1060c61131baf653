package tabular

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV export. Real SemTab datasets ship as CSV files with separate
// ground-truth target files; this writer keeps both in one file using an
// annotation row schema so generated benchmarks can be inspected and
// diffed with ordinary tools.
//
// Layout:
//
//	row 0:  column names
//	row 1:  column ground truth — "type:<TypeID>:prop:<PropID>" or ""
//	rows 2+: cells — entity cells are "text|<EntityID>", literals plain text
//
// The cell separator '|' never occurs in generated mentions; WriteCSV
// rejects cell text containing it rather than corrupting the file.

// WriteCSV serializes one table.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	names := make([]string, len(t.Cols))
	truth := make([]string, len(t.Cols))
	for i, c := range t.Cols {
		names[i] = c.Name
		truth[i] = fmt.Sprintf("type:%d:prop:%d", c.TruthType, c.Prop)
	}
	if err := cw.Write(names); err != nil {
		return err
	}
	if err := cw.Write(truth); err != nil {
		return err
	}
	row := make([]string, len(t.Cols))
	for ri, cells := range t.Rows {
		for ci, cell := range cells {
			for _, r := range cell.Text {
				if r == '|' {
					return fmt.Errorf("tabular: cell (%d,%d) contains the reserved separator '|'", ri, ci)
				}
			}
			if cell.IsEntity() {
				row[ci] = fmt.Sprintf("%s|%d", cell.Text, cell.Truth)
			} else {
				row[ci] = cell.Text
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
