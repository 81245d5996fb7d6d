package exec

import (
	"fmt"

	"sim/internal/ast"
	"sim/internal/query"
	"sim/internal/value"
)

// triValue converts a Kleene truth value for value position: a boolean,
// or NULL for Unknown.
func triValue(t value.Tri) value.Value {
	switch t {
	case value.True:
		return value.NewBool(true)
	case value.False:
		return value.NewBool(false)
	}
	return value.Null
}

func arith(op ast.BinaryOp) value.Arith {
	switch op {
	case ast.OpAdd:
		return value.OpAdd
	case ast.OpSub:
		return value.OpSub
	case ast.OpMul:
		return value.OpMul
	}
	return value.OpDiv
}

func cmpOf(op ast.BinaryOp) (value.Cmp, bool) {
	switch op {
	case ast.OpEQ:
		return value.CmpEQ, true
	case ast.OpNEQ:
		return value.CmpNEQ, true
	case ast.OpLT:
		return value.CmpLT, true
	case ast.OpLE:
		return value.CmpLE, true
	case ast.OpGT:
		return value.CmpGT, true
	case ast.OpGE:
		return value.CmpGE, true
	}
	return 0, false
}

// aggregate folds one aggregate function over a collected multiset.
// DISTINCT compacts vals in place.
func aggregate(a *query.Agg, vals []value.Value) (value.Value, error) {
	if a.Distinct {
		seen := make(map[string]bool, len(vals))
		kept := vals[:0]
		for _, v := range vals {
			k := v.Key()
			if !seen[k] {
				seen[k] = true
				kept = append(kept, v)
			}
		}
		vals = kept
	}
	switch a.Func {
	case ast.AggCount:
		return value.NewInt(int64(len(vals))), nil
	case ast.AggSum, ast.AggAvg:
		if len(vals) == 0 {
			return value.Null, nil
		}
		sum := 0.0
		isInt := true
		for _, v := range vals {
			switch v.Kind() {
			case value.KindInt:
				sum += float64(v.Int())
			case value.KindNumber:
				sum += v.Number()
				isInt = false
			default:
				return value.Null, fmt.Errorf("exec: %s over non-numeric %s", a.Func, v.Kind())
			}
		}
		if a.Func == ast.AggAvg {
			return value.NewNumber(sum / float64(len(vals))), nil
		}
		if isInt {
			return value.NewInt(int64(sum)), nil
		}
		return value.NewNumber(sum), nil
	case ast.AggMin, ast.AggMax:
		if len(vals) == 0 {
			return value.Null, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			c, err := value.Compare(v, best)
			if err != nil {
				return value.Null, err
			}
			if (a.Func == ast.AggMin && c < 0) || (a.Func == ast.AggMax && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return value.Null, fmt.Errorf("exec: unknown aggregate %v", a.Func)
}
