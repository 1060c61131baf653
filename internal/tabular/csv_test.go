package tabular

import (
	"bytes"
	"testing"

	"emblookup/internal/kg"
)

// TestWriteCSVLayout: the name row, the truth row, then entity cells as
// "text|id" and literal cells as plain text.
func TestWriteCSVLayout(t *testing.T) {
	tb := &Table{
		Cols: []Column{{Name: "city", TruthType: 3, Prop: -1}, {Name: "founded", TruthType: kg.NoType, Prop: 7}},
		Rows: [][]Cell{{{Text: "Berlin", Truth: 42}, {Text: "1237", Truth: kg.NoEntity}}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if want := "city,founded\ntype:3:prop:-1,type:-1:prop:7\nBerlin|42,1237\n"; buf.String() != want {
		t.Fatalf("WriteCSV = %q, want %q", buf.String(), want)
	}
}

func TestCSVRejectsReservedSeparator(t *testing.T) {
	tb := &Table{
		Cols: []Column{{Name: "x", TruthType: kg.NoType, Prop: -1}},
		Rows: [][]Cell{{{Text: "bad|cell", Truth: 1}}},
	}
	var buf bytes.Buffer
	if err := tb.WriteCSV(&buf); err == nil {
		t.Fatal("reserved separator should be rejected")
	}
}
