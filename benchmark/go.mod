// The benchmark is a module of its own so that it builds from its own
// directory; it names itself under the program's module path so that it may
// import the program's internal packages, and finds them one directory up.
module etx/benchmark

go 1.24

require etx v0.0.0

replace etx => ../
