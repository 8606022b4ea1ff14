package sqlmini

import (
	"testing"

	"v2v/internal/data"
	"v2v/internal/raster"
	"v2v/internal/rational"
	"v2v/internal/vql"
)

func num(n int64) vql.Val { return vql.NumV(rational.FromInt(n)) }

// zooDB builds the canonical test database: detections of animals per frame
// time, mirroring the paper's video_objects table.
func zooDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB()
	_, err := db.CreateTable("video_objects", []Column{
		{Name: "ts", Type: vql.TypeNum},
		{Name: "video", Type: vql.TypeStr},
		{Name: "model", Type: vql.TypeStr},
		{Name: "count", Type: vql.TypeNum},
		{Name: "objects", Type: vql.TypeBoxes},
	})
	if err != nil {
		t.Fatal(err)
	}
	boxes := func(n int) []raster.Box {
		out := make([]raster.Box, n)
		for i := range out {
			out[i] = raster.Box{X: i * 10, Y: i * 5, W: 20, H: 10, Class: "ZEBRA", Track: i + 1}
		}
		return out
	}
	for i := 0; i < 10; i++ {
		n := 0
		if i >= 5 {
			n = i - 4
		}
		video := "kabr1"
		if i%2 == 1 {
			video = "kabr2"
		}
		err := db.Insert("video_objects", []vql.Val{
			vql.NumV(rational.New(int64(i), 30)),
			vql.StrV(video),
			vql.StrV("yolov5m"),
			num(int64(n)),
			vql.BoxesV(boxes(n)),
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestCreateTableValidation(t *testing.T) {
	db := NewDB()
	if _, err := db.CreateTable("t", nil); err == nil {
		t.Error("empty columns should fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: vql.TypeNum}, {Name: "A", Type: vql.TypeStr}}); err == nil {
		t.Error("duplicate columns should fail")
	}
	if _, err := db.CreateTable("t", []Column{{Name: "a", Type: vql.TypeNum}}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateTable("T", []Column{{Name: "a", Type: vql.TypeNum}}); err == nil {
		t.Error("case-insensitive duplicate table should fail")
	}
}

func TestInsertValidation(t *testing.T) {
	db := NewDB()
	db.CreateTable("t", []Column{{Name: "a", Type: vql.TypeNum}, {Name: "b", Type: vql.TypeStr}})
	if err := db.Insert("missing", nil); err == nil {
		t.Error("missing table should fail")
	}
	if err := db.Insert("t", []vql.Val{num(1)}); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := db.Insert("t", []vql.Val{vql.StrV("x"), vql.StrV("y")}); err == nil {
		t.Error("wrong type should fail")
	}
	if err := db.Insert("t", []vql.Val{num(1), vql.NullV()}); err != nil {
		t.Errorf("null insert should be fine: %v", err)
	}
}

func TestSelectStar(t *testing.T) {
	db := zooDB(t)
	res, err := db.Query("SELECT * FROM video_objects")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 5 || len(res.Rows) != 10 {
		t.Fatalf("cols=%d rows=%d", len(res.Cols), len(res.Rows))
	}
}

func TestSelectProjectionAndWhere(t *testing.T) {
	db := zooDB(t)
	res, err := db.Query("SELECT ts, objects FROM video_objects WHERE video = 'kabr1' AND count > 0")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 2 {
		t.Fatalf("cols = %d", len(res.Cols))
	}
	// kabr1 rows are even i; count>0 means i>=5 -> i in {6, 8}.
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if !res.Rows[0][0].Num.Equal(rational.New(6, 30)) {
		t.Errorf("first ts = %v", res.Rows[0][0].Num)
	}
}

func TestWhereOperatorsAndLogic(t *testing.T) {
	db := zooDB(t)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT ts FROM video_objects WHERE count >= 3", 3},
		{"SELECT ts FROM video_objects WHERE count != 0", 5},
		{"SELECT ts FROM video_objects WHERE NOT count = 0", 5},
		{"SELECT ts FROM video_objects WHERE count = 0 OR count = 5", 6},
		{"SELECT ts FROM video_objects WHERE (count > 1 AND count < 4) OR video = 'nope'", 2},
		{"SELECT ts FROM video_objects WHERE ts < 1/10", 3},
		{"SELECT ts FROM video_objects WHERE ts > -1/10 AND count < 0.5", 5},
		{"SELECT ts FROM video_objects WHERE ts <= 3/30 AND model = 'yolov5m'", 4},
		{"SELECT ts FROM video_objects WHERE objects", 5}, // truthy boxes
		{"SELECT ts FROM video_objects WHERE model IS NULL", 0},
		{"SELECT ts FROM video_objects WHERE model IS NOT NULL", 10},
	}
	for _, c := range cases {
		res, err := db.Query(c.sql)
		if err != nil {
			t.Errorf("%s: %v", c.sql, err)
			continue
		}
		if len(res.Rows) != c.want {
			t.Errorf("%s: rows = %d, want %d", c.sql, len(res.Rows), c.want)
		}
	}
}

func TestRatNumCoercion(t *testing.T) {
	db := zooDB(t)
	// A decimal and a num/den literal are one exact number: 0.1 = 3/30.
	for _, sql := range []string{
		"SELECT ts FROM video_objects WHERE ts = 0.1",
		"SELECT ts FROM video_objects WHERE ts = 1/10 AND 1/10 = 0.10",
	} {
		res, err := db.Query(sql)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != 1 {
			t.Errorf("%s: rows = %d, want 1", sql, len(res.Rows))
		}
	}
}

// TestExactNumberReachesEval: a SQL value 1/3 reaches the evaluator as 1/3,
// so d[t] == 1/3 holds.
func TestExactNumberReachesEval(t *testing.T) {
	db := NewDB()
	db.CreateTable("d", []Column{{Name: "ts", Type: vql.TypeNum}, {Name: "v", Type: vql.TypeNum}})
	db.Insert("d", []vql.Val{num(0), vql.NumV(rational.New(1, 3))})
	arr, err := MaterializeArrayBounded(db, "SELECT ts, v FROM d WHERE v = 1/3", rational.Interval{})
	if err != nil {
		t.Fatal(err)
	}
	e := vql.BinOp{Op: vql.OpEQ, L: vql.DataRef{Name: "d", Index: vql.TimeVar{}}, R: vql.NumLit{V: rational.New(1, 3)}}
	v, err := vql.Eval(e, &vql.Env{T: rational.Zero, Data: data.Arrays{"d": arr}})
	if err != nil || v.Type != vql.TypeBool || !v.Bool {
		t.Errorf("d[t] == 1/3 = %v, %v; want true", v, err)
	}
}

func TestOrderByAndLimit(t *testing.T) {
	db := zooDB(t)
	res, err := db.Query("SELECT ts, count FROM video_objects ORDER BY count DESC LIMIT 3")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	for i, want := range []int64{5, 4, 3} {
		if got := res.Rows[i][1]; !got.Num.Equal(rational.FromInt(want)) {
			t.Errorf("count %d = %v, want %d", i, got, want)
		}
	}
	asc, _ := db.Query("SELECT ts FROM video_objects ORDER BY ts ASC LIMIT 1")
	if !asc.Rows[0][0].Num.Equal(rational.Zero) {
		t.Errorf("first asc ts = %v", asc.Rows[0][0].Num)
	}
}

func TestQueryErrors(t *testing.T) {
	db := zooDB(t)
	bad := []string{
		"",
		"UPDATE video_objects",
		"SELECT FROM video_objects",
		"SELECT ts FROM",
		"SELECT ts FROM nope",
		"SELECT nope FROM video_objects",
		"SELECT ts FROM video_objects WHERE",
		"SELECT ts FROM video_objects WHERE count <",
		"SELECT ts FROM video_objects WHERE (count > 1",
		"SELECT ts FROM video_objects ORDER BY nope",
		"SELECT ts FROM video_objects LIMIT x",
		"SELECT ts FROM video_objects trailing",
		"SELECT ts FROM video_objects WHERE count > 'str'",
		"SELECT ts FROM video_objects WHERE video ! model",
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("%q: expected error", sql)
		}
	}
}

func TestStringEscapes(t *testing.T) {
	db := NewDB()
	db.CreateTable("t", []Column{{Name: "s", Type: vql.TypeStr}})
	db.Insert("t", []vql.Val{vql.StrV("it's")})
	res, err := db.Query("SELECT s FROM t WHERE s = 'it''s'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestMaterializeArray(t *testing.T) {
	db := zooDB(t)
	arr, err := MaterializeArrayBounded(db, "SELECT ts, objects FROM video_objects WHERE model = 'yolov5m' ORDER BY ts", rational.Interval{})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 10 {
		t.Fatalf("Len = %d", arr.Len())
	}
	v, ok := arr.At(rational.New(7, 30))
	if !ok || v.Type != vql.TypeBoxes || len(v.Boxes) != 3 {
		t.Errorf("At(7/30) = %v,%v", v, ok)
	}
	// Empty-box frames are falsy: boxes() over them is the identity.
	for i := int64(0); i < 5; i++ {
		if v, _ := arr.At(rational.New(i, 30)); v.Truthy() {
			t.Errorf("At(%d/30) = %v, want falsy", i, v)
		}
	}
}

func TestMaterializeArrayErrors(t *testing.T) {
	materializeErrors(t, rational.Interval{})
}

// TestMaterializeArrayBoundedErrors: a window changes which rows are kept,
// never what is refused.
func TestMaterializeArrayBoundedErrors(t *testing.T) {
	materializeErrors(t, rational.Interval{Lo: rational.Zero, Hi: rational.One})
}

func materializeErrors(t *testing.T, iv rational.Interval) {
	t.Helper()
	db := zooDB(t)
	if _, err := MaterializeArrayBounded(db, "SELECT ts FROM video_objects", iv); err == nil {
		t.Error("single column should fail")
	}
	if _, err := MaterializeArrayBounded(db, "SELECT video, objects FROM video_objects", iv); err == nil {
		t.Error("non-Num timestamp should fail")
	}
	if _, err := MaterializeArrayBounded(db, "bogus", iv); err == nil {
		t.Error("bad sql should fail")
	}
	db2 := NewDB()
	db2.CreateTable("t", []Column{{Name: "ts", Type: vql.TypeNum}, {Name: "v", Type: vql.TypeNum}})
	db2.Insert("t", []vql.Val{vql.NullV(), num(1)})
	if _, err := MaterializeArrayBounded(db2, "SELECT ts, v FROM t", iv); err == nil {
		t.Error("null timestamp should fail")
	}
}

func TestMaterializeArrayBounded(t *testing.T) {
	db := zooDB(t)
	arr, err := MaterializeArrayBounded(db, "SELECT ts, count FROM video_objects",
		rational.Interval{Lo: rational.New(2, 30), Hi: rational.New(5, 30)})
	if err != nil {
		t.Fatal(err)
	}
	if arr.Len() != 3 {
		t.Errorf("bounded Len = %d, want 3", arr.Len())
	}
	if _, ok := arr.At(rational.New(5, 30)); ok {
		t.Error("upper bound should be exclusive")
	}
}
