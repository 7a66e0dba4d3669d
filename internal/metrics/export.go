package metrics

import (
	"fmt"
	"reflect"
	"strings"
)

// Export registers (or replaces) one scrape-time series for every field of
// T that carries a `metric:"counter|gauge[,name]"` tag and a `help:"…"`
// tag, so a subsystem's Stats snapshot is the one description of its
// counters and gauges: /stats serves the struct as JSON, /metrics serves
// the tagged fields through Export.
//
// A field's series is prefix_<name>, name defaulting to the field's JSON
// name; counters get _total appended. Each scrape calls read and takes the
// field's value. Counters must be unsigned integers; gauges may be any
// integer, float or bool (0/1) field. Untagged fields stay /stats-only.
// T is inspected once, here: an unsupported tag or field type panics at
// registration, like any other naming mistake.
func Export[T any](r *Registry, prefix string, read func() T, labels ...Label) {
	t := reflect.TypeFor[T]()
	if t.Kind() != reflect.Struct {
		panic(fmt.Sprintf("metrics: Export of %s: not a struct", t))
	}
	for i := range t.NumField() {
		f := t.Field(i)
		tag, ok := f.Tag.Lookup("metric")
		if !ok {
			continue
		}
		typ, name, _ := strings.Cut(tag, ",")
		if name == "" {
			name, _, _ = strings.Cut(f.Tag.Get("json"), ",")
		}
		help := f.Tag.Get("help")
		if name == "" || name == "-" || help == "" {
			panic(fmt.Sprintf("metrics: Export of %s.%s: tag needs a series name (or json name) and help", t, f.Name))
		}
		name = prefix + "_" + name
		field := func() reflect.Value { return reflect.ValueOf(read()).Field(i) }
		switch k := f.Type.Kind(); {
		case typ == "counter" && k >= reflect.Uint && k <= reflect.Uint64:
			r.setFunc(name+"_total", help, typ, CounterFunc(func() uint64 { return field().Uint() }), labels)
		case typ == "gauge" && (k >= reflect.Int && k <= reflect.Float64 || k == reflect.Bool):
			r.setFunc(name, help, typ, GaugeFunc(func() float64 { return gaugeValue(field()) }), labels)
		default:
			panic(fmt.Sprintf("metrics: Export of %s.%s: %s %q is not a counter or gauge", t, f.Name, f.Type, typ))
		}
	}
}

// gaugeValue reads an integer, float or bool (0/1) field as a gauge.
func gaugeValue(v reflect.Value) float64 {
	switch {
	case v.CanInt():
		return float64(v.Int())
	case v.CanUint():
		return float64(v.Uint())
	case v.CanFloat():
		return v.Float()
	case v.Bool():
		return 1
	default:
		return 0
	}
}
