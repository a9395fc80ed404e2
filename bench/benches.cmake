# Bench binaries regenerating the paper's tables and figures. They
# are defined from the top-level CMakeLists (via include()) rather
# than add_subdirectory() so that ${CMAKE_BINARY_DIR}/bench contains
# only executables — `for b in build/bench/*; do $b; done` then runs
# the full harness cleanly.

function(cnv_bench name)
    add_executable(${name} ${CMAKE_SOURCE_DIR}/bench/${name}.cc)
    target_include_directories(${name} PRIVATE ${CMAKE_SOURCE_DIR}/bench)
    target_link_libraries(${name} PRIVATE
        cnv_driver cnv_arch cnv_pruning cnv_power cnv_timing
        cnv_dadiannao cnv_nn cnv_zfnaf cnv_tensor cnv_sim cnv_warnings)
    set_target_properties(${name} PROPERTIES
        RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

cnv_bench(bench_fig01_zero_fractions)
cnv_bench(bench_fig09_speedup)
cnv_bench(bench_fig10_activity)
cnv_bench(bench_fig11_area)
cnv_bench(bench_fig12_power)
cnv_bench(bench_fig13_edp)
cnv_bench(bench_fig14_pruning_pareto)
cnv_bench(bench_tab02_thresholds)
cnv_bench(bench_abl_assignment)
cnv_bench(bench_abl_brick_size)
cnv_bench(bench_abl_dispatcher)
cnv_bench(bench_abl_sparsity)
cnv_bench(bench_ext_fc)
cnv_bench(bench_ext_multinode)
cnv_bench(bench_micro_kernels)
target_link_libraries(bench_micro_kernels PRIVATE benchmark::benchmark)
