# Build file of the benchmark harness. run.py configures the
# simulator's own, unmodified build with this file as its project hook:
#
#   cmake -S . -B .bench_build -DCMAKE_BUILD_TYPE=Release \
#         -DCMAKE_PROJECT_INCLUDE=$PWD/hostbench/hostbench.cmake
#   cmake --build .bench_build --target hostbench cnvsim
#
# The hook runs inside the simulator's project() call and defers the
# harness target to the end of the simulator's top-level CMakeLists,
# so the harness is compiled with the same language level, CNV_SIMD
# definition and ISA flags as the libraries it links (the inline
# kernels in core/simd.h must match on both sides).
include_guard(GLOBAL)

set(CNV_HOSTBENCH_DIR "${CMAKE_CURRENT_LIST_DIR}")

function(cnv_hostbench_target)
    add_executable(hostbench "${CNV_HOSTBENCH_DIR}/hostbench.cc")
    target_compile_definitions(hostbench PRIVATE
        HOSTBENCH_COMPILER="${CMAKE_CXX_COMPILER_ID} ${CMAKE_CXX_COMPILER_VERSION}"
        HOSTBENCH_BUILD_TYPE="${CMAKE_BUILD_TYPE}")
    target_link_libraries(hostbench PRIVATE
        cnv_driver cnv_pruning cnv_warnings)
endfunction()

cmake_language(DEFER CALL cnv_hostbench_target)
