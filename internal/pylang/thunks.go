package pylang

import (
	"metajit/internal/heap"
	"metajit/internal/mtjit"
)

// thunks holds every residual-call body that needs nothing but the VM,
// bound to it once at construction: evaluating a method value or a
// closure literal at the call site allocates each time, and residual
// calls sit on the interpreter's hot path. The bodies stay next to their
// callers in ops.go and builtins.go.
type thunks struct {
	bigAdd, bigDivmod, bigFloorDiv, bigLsh, bigMod, bigMul, bigNeg       mtjit.Thunk
	bigRsh, bigStr, bigSub, dictContains, dictGet, dictIndex, dictKeys   mtjit.Thunk
	dictLen, dictNew, dictPop, dictSet, dictValues, encodeASCII          mtjit.Thunk
	floatMod, formatStr, intPow, intStr, listAppend, listConcat          mtjit.Thunk
	listContains, listExtend, listIndex, listInsert, listPop, listRepeat mtjit.Thunk
	listReverse, listSetSlice, listSlice, listSort, pow, print, sqrt     mtjit.Thunk
	strConcat, strContains, strEndswith, strFind, strJoin, strLower      mtjit.Thunk
	strRepeat, strReplace, strSlice, strSplit, strStartswith, strStrip   mtjit.Thunk
	strToFloat, strToInt, strUpper                                       mtjit.Thunk
	// cmpBig and cmpStr are the ordered comparisons, one per operator.
	cmpBig, cmpStr [CmpNe + 1]mtjit.Thunk
}

func (vm *VM) bindThunks() {
	vm.th = thunks{
		bigAdd:        vm.thunkBigAdd,
		bigDivmod:     vm.thunkBigDivmod,
		bigFloorDiv:   vm.thunkBigFloorDiv,
		bigLsh:        vm.thunkBigLsh,
		bigMod:        vm.thunkBigMod,
		bigMul:        vm.thunkBigMul,
		bigNeg:        vm.thunkBigNeg,
		bigRsh:        vm.thunkBigRsh,
		bigStr:        vm.thunkBigStr,
		bigSub:        vm.thunkBigSub,
		dictContains:  vm.thunkDictContains,
		dictGet:       vm.thunkDictGet,
		dictIndex:     vm.thunkDictIndex,
		dictKeys:      vm.thunkDictKeys,
		dictLen:       vm.thunkDictLen,
		dictNew:       vm.thunkDictNew,
		dictPop:       vm.thunkDictPop,
		dictSet:       vm.thunkDictSet,
		dictValues:    vm.thunkDictValues,
		encodeASCII:   vm.thunkEncodeASCII,
		floatMod:      vm.thunkFloatMod,
		formatStr:     vm.thunkFormatStr,
		intPow:        vm.thunkIntPow,
		intStr:        vm.thunkIntStr,
		listAppend:    vm.thunkListAppend,
		listConcat:    vm.thunkListConcat,
		listContains:  vm.thunkListContains,
		listExtend:    vm.thunkListExtend,
		listIndex:     vm.thunkListIndex,
		listInsert:    vm.thunkListInsert,
		listPop:       vm.thunkListPop,
		listRepeat:    vm.thunkListRepeat,
		listReverse:   vm.thunkListReverse,
		listSetSlice:  vm.thunkListSetSlice,
		listSlice:     vm.thunkListSlice,
		listSort:      vm.thunkListSort,
		pow:           vm.thunkPow,
		print:         vm.thunkPrint,
		sqrt:          vm.thunkSqrt,
		strConcat:     vm.thunkStrConcat,
		strContains:   vm.thunkStrContains,
		strEndswith:   vm.thunkStrEndswith,
		strFind:       vm.thunkStrFind,
		strJoin:       vm.thunkStrJoin,
		strLower:      vm.thunkStrLower,
		strRepeat:     vm.thunkStrRepeat,
		strReplace:    vm.thunkStrReplace,
		strSlice:      vm.thunkStrSlice,
		strSplit:      vm.thunkStrSplit,
		strStartswith: vm.thunkStrStartswith,
		strStrip:      vm.thunkStrStrip,
		strToFloat:    vm.thunkStrToFloat,
		strToInt:      vm.thunkStrToInt,
		strUpper:      vm.thunkStrUpper,
	}
	for op := CmpLt; op <= CmpNe; op++ {
		vm.th.cmpBig[op] = func(args []heap.Value) heap.Value { return vm.thunkCmpBig(op, args) }
		vm.th.cmpStr[op] = func(args []heap.Value) heap.Value { return vm.thunkCmpStr(op, args) }
	}
}
