// Package sqlmini is a tiny in-memory relational engine: typed tables and
// a SELECT subset sufficient for the V2V data-join path the paper sketches
// ("SELECT timestamp, frame_objects FROM video_objects WHERE ...").
//
// It exists so the repository exercises the same code path the paper's
// system does when a VDBMS feeds relational query results into a synthesis
// spec: rows become time-indexed data arrays (package data), optionally
// materialized in time-bounded portions.
//
// A row holds the evaluator's own values (vql.Val) and a column's type is a
// vql.Type: Num (an exact rational — timestamps and every other number),
// Bool, Str or Boxes. A null fits a column of any type.
//
// Supported SQL:
//
//	SELECT col [, col ...] FROM table
//	  [WHERE expr]         -- comparisons, AND/OR/NOT, parentheses
//	  [ORDER BY col [ASC|DESC]]
//	  [LIMIT n]
//
// Literals: integers, decimals and rationals written num/den (e.g. 301/30),
// all exact; single-quoted strings, TRUE/FALSE, NULL.
package sqlmini

import (
	"fmt"
	"sort"
	"strings"

	"v2v/internal/data"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

// Column declares one table column.
type Column struct {
	Name string
	Type vql.Type
}

// Table is an ordered collection of typed rows.
type Table struct {
	Name string
	Cols []Column
	Rows [][]vql.Val
}

func (t *Table) colIndex(name string) (int, bool) {
	for i, c := range t.Cols {
		if strings.EqualFold(c.Name, name) {
			return i, true
		}
	}
	return -1, false
}

// DB is an in-memory database. Not safe for concurrent mutation.
type DB struct {
	tables map[string]*Table
}

// NewDB returns an empty database.
func NewDB() *DB { return &DB{tables: make(map[string]*Table)} }

// CreateTable registers an empty table.
func (db *DB) CreateTable(name string, cols []Column) (*Table, error) {
	key := strings.ToLower(name)
	if _, dup := db.tables[key]; dup {
		return nil, fmt.Errorf("sqlmini: table %q already exists", name)
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("sqlmini: table %q needs at least one column", name)
	}
	seen := map[string]bool{}
	for _, c := range cols {
		lc := strings.ToLower(c.Name)
		if lc == "" || seen[lc] {
			return nil, fmt.Errorf("sqlmini: bad or duplicate column %q", c.Name)
		}
		seen[lc] = true
	}
	t := &Table{Name: name, Cols: cols}
	db.tables[key] = t
	return t, nil
}

// Table returns a registered table.
func (db *DB) Table(name string) (*Table, bool) {
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Insert appends a row, checking arity and types (a null is accepted for
// any declared type).
func (db *DB) Insert(table string, row []vql.Val) error {
	t, ok := db.Table(table)
	if !ok {
		return fmt.Errorf("sqlmini: no table %q", table)
	}
	if len(row) != len(t.Cols) {
		return fmt.Errorf("sqlmini: %q wants %d columns, got %d", table, len(t.Cols), len(row))
	}
	for i, v := range row {
		if v.Type != vql.TypeNull && v.Type != t.Cols[i].Type {
			return fmt.Errorf("sqlmini: column %q wants %v, got %v", t.Cols[i].Name, t.Cols[i].Type, v.Type)
		}
	}
	t.Rows = append(t.Rows, row)
	return nil
}

// Result is a query result: named columns and rows.
type Result struct {
	Cols []Column
	Rows [][]vql.Val
}

// Query parses and executes a SELECT statement.
func (db *DB) Query(sql string) (*Result, error) {
	stmt, err := parseSelect(sql)
	if err != nil {
		return nil, err
	}
	return db.exec(stmt)
}

func (db *DB) exec(s *selectStmt) (*Result, error) {
	t, ok := db.Table(s.table)
	if !ok {
		return nil, fmt.Errorf("sqlmini: no table %q", s.table)
	}
	// Resolve projection.
	var outCols []Column
	var colIdx []int
	if s.star {
		outCols = t.Cols
		colIdx = make([]int, len(t.Cols))
		for i := range colIdx {
			colIdx[i] = i
		}
	} else {
		for _, name := range s.cols {
			i, ok := t.colIndex(name)
			if !ok {
				return nil, fmt.Errorf("sqlmini: no column %q in %q", name, s.table)
			}
			outCols = append(outCols, t.Cols[i])
			colIdx = append(colIdx, i)
		}
	}
	// Filter.
	var kept [][]vql.Val
	for _, row := range t.Rows {
		if s.where != nil {
			v, err := s.where.eval(t, row)
			if err != nil {
				return nil, err
			}
			if !v.Truthy() {
				continue
			}
		}
		kept = append(kept, row)
	}
	// Order.
	if s.orderBy != "" {
		oi, ok := t.colIndex(s.orderBy)
		if !ok {
			return nil, fmt.Errorf("sqlmini: no column %q in %q", s.orderBy, s.table)
		}
		sort.SliceStable(kept, func(i, j int) bool {
			c, _ := compare(kept[i][oi], kept[j][oi]) // one column: one type or null
			if s.desc {
				return c > 0
			}
			return c < 0
		})
	}
	// Limit.
	if s.limit >= 0 && len(kept) > s.limit {
		kept = kept[:s.limit]
	}
	// Project.
	out := make([][]vql.Val, len(kept))
	for i, row := range kept {
		pr := make([]vql.Val, len(colIdx))
		for j, ci := range colIdx {
			pr[j] = row[ci]
		}
		out[i] = pr
	}
	return &Result{Cols: outCols, Rows: out}, nil
}

// compare orders two values of one type, nulls first; values of two
// different types do not compare.
func compare(a, b vql.Val) (int, error) {
	switch {
	case a.Type == vql.TypeNull || b.Type == vql.TypeNull:
		// SQL three-valued logic collapsed: null compares unequal/first.
		return boolCmp(a.Type != vql.TypeNull, b.Type != vql.TypeNull), nil
	case a.Type != b.Type:
		return 0, fmt.Errorf("sqlmini: cannot compare %v with %v", a.Type, b.Type)
	}
	switch a.Type {
	case vql.TypeNum:
		return a.Num.Cmp(b.Num), nil
	case vql.TypeStr:
		return strings.Compare(a.Str, b.Str), nil
	case vql.TypeBool:
		return boolCmp(a.Bool, b.Bool), nil
	}
	return len(a.Boxes) - len(b.Boxes), nil
}

// boolCmp orders false before true.
func boolCmp(a, b bool) int {
	switch {
	case a == b:
		return 0
	case b:
		return -1
	}
	return 1
}

// MaterializeArrayBounded runs a SELECT whose first column is a Num
// timestamp and whose second column is the value, and builds a data array
// from the rows — the paper's SQL-defined data array. A non-empty iv keeps
// only rows whose timestamp lies in it: the "materialized in portions by
// bounding the time" optimization that trades storage for compute, made
// during the scan, before any array entry is built. The empty (zero)
// Interval keeps every row.
func MaterializeArrayBounded(db *DB, sql string, iv rational.Interval) (*data.Array, error) {
	res, err := db.Query(sql)
	if err != nil {
		return nil, err
	}
	if len(res.Cols) < 2 {
		return nil, fmt.Errorf("sqlmini: materialize needs (timestamp, value) columns, got %d", len(res.Cols))
	}
	if res.Cols[0].Type != vql.TypeNum {
		return nil, fmt.Errorf("sqlmini: first column %q must be Num, got %v", res.Cols[0].Name, res.Cols[0].Type)
	}
	var entries []data.Entry
	for _, row := range res.Rows {
		if row[0].Type == vql.TypeNull {
			return nil, fmt.Errorf("sqlmini: null timestamp in materialized array")
		}
		if !iv.Empty() && !iv.Contains(row[0].Num) {
			continue
		}
		entries = append(entries, data.Entry{T: row[0].Num, V: row[1]})
	}
	return data.NewArray(entries)
}
